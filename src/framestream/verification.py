"""Independent truth sources: straight-ray oracle, conservation-form
feasibility, fundamental-forms shape operator, and the aggregated
check suite behind ``verify``."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dual as dm
from .catalog import catalog_coefficients
from .curvature import ShapeOperator2x2, parallel_transport_holonomy
from .derivatives import (DEFAULT_CFG, DiffConfig, directional_derivative,
                          frame_jet, frame_scalars)
from .errors import (DegenerateMetric, DomainExit, FoliationMissing,
                     InconsistentReport, OutOfRange, PolarDirection,
                     UnwrapFailure)
from .frames import (BUILTIN_FRAMES, Constant, Ellipsoid, Sphere,
                     builtin_frame, frame_spec)
from .frames import default_graph_id  # noqa: F401  (re-exported)
from .streaming import (MuForm, OmegaForm, _angles, _direction,
                        coefficients_from_jet, grad_mu_from_jet,
                        grad_omega_from_jet, streaming_coefficients)

TWO_PI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class RayOracleResult:
    """Finite-difference derivatives of (mu, omega) along a straight ray."""

    dmu_ds: float
    domega_ds: float
    step: float
    richardson_error_estimate: float

    def __post_init__(self):
        if self.richardson_error_estimate < 0.0:
            raise InconsistentReport("error estimate must be nonnegative")


@dataclasses.dataclass(frozen=True)
class ConservationReport:
    feasible: bool
    reason: str
    f_factor: object
    g_factor: object
    samples_checked: int

    def __post_init__(self):
        if self.feasible and (self.reason != "Feasible"
                              or self.f_factor is None
                              or self.g_factor is None):
            raise InconsistentReport(
                "feasible report must carry both factors")


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | report-only
    max_residual: float
    tolerance: float
    samples: int


def ray_oracle(frame_field, r, omega_dir, step: float = 1e-3,
               cfg: DiffConfig = DEFAULT_CFG) -> RayOracleResult:
    """d(mu)/ds and d(omega)/ds along the straight ray r + s*omega_dir.

    Central differences of mu(s) = Omega . n(r + s Omega) and of the
    branch-unwrapped azimuth, Richardson-extrapolated over {step,
    step/2}.  This never consults the differential engines, so it is
    an independent oracle for the streaming coefficients.  The s = 0
    probe serves both the polar test and the stencil: five raw calls.
    """
    r = np.asarray(r, dtype=float)
    d = np.asarray(omega_dir, dtype=float)
    if abs(float(d @ d) - 1.0) > 1e-10:
        raise OutOfRange("ray direction must be unit")

    # The probes run in the order the checks need them: s = 0 first, then
    # the stencil from -step up, stopping at the first that fails; its
    # DomainExit is raised only after the checks on the probes before it.
    ss = [-step, -step / 2.0, 0.0, step / 2.0, step]
    rows = (r + np.multiply.outer(np.array(ss), d)).tolist()
    order = (2, 0, 1, 3, 4)
    outs = []
    failure = None
    for k in order:
        try:
            outs.append(frame_field.raw(*rows[k]))
        except Exception as exc:
            if k == 2:
                raise DomainExit(
                    f"ray probe left the domain at s={ss[k]}") from exc
            failure = k, exc
            break
    # Omega . (n, t, b) of each probe as a row-by-row dot, which rounds
    # as d @ n does (a stacked matvec does not).
    f = np.array(outs, dtype=float)
    proj = np.matmul(f[:, :, None, :], d)[:, :, 0].tolist()
    if 1.0 - proj[0][0] * proj[0][0] <= 1e-10:
        raise PolarDirection("ray parallel to n at the base point")

    mus = [0.0] * 5
    oms = [0.0] * 5
    for k, (mu, dt, db) in zip(order, proj):
        mus[k] = mu
        oms[k] = math.atan2(db, dt)
    last = 5 if failure is None else failure[0]
    for k in range(1, last):
        jump = oms[k] - oms[k - 1]
        jump -= TWO_PI * round(jump / TWO_PI)
        if abs(jump) > math.pi / 2.0:
            raise UnwrapFailure(
                f"azimuth jump {jump:.3f} between probes; "
                "reduce the step or move off the polar direction")
        oms[k] = oms[k - 1] + jump
    if failure is not None:
        k, exc = failure
        raise DomainExit(f"ray probe left the domain at s={ss[k]}") from exc

    def derivs(width_idx, h):
        lo, hi = 2 - width_idx, 2 + width_idx
        return ((mus[hi] - mus[lo]) / (2.0 * h),
                (oms[hi] - oms[lo]) / (2.0 * h))

    dmu_h, dom_h = derivs(2, step)
    dmu_h2, dom_h2 = derivs(1, step / 2.0)
    dmu = (4.0 * dmu_h2 - dmu_h) / 3.0
    dom = (4.0 * dom_h2 - dom_h) / 3.0
    est = max(abs(dmu_h2 - dmu_h), abs(dom_h2 - dom_h)) / 3.0
    return RayOracleResult(dmu_ds=dmu, domega_ds=dom, step=step,
                           richardson_error_estimate=est)


def conservation_check(frame_field, sample_points, sample_angles,
                       cfg: DiffConfig = DEFAULT_CFG) -> ConservationReport:
    """Feasibility of a divergence rewriting of the streaming term.

    Feasible only when kappa^n vanishes and the leaf normal curvature
    C(r, omega) is azimuth-independent at every sample; the two known
    factor pairs are emitted for flat and spherical leaves."""
    points = [np.asarray(p, dtype=float) for p in sample_points]
    angles = [(float(mu), float(om)) for mu, om in sample_angles]
    if len(points) < 8 or len(angles) < 8:
        raise OutOfRange("need at least 8 spatial and 8 angular samples")
    samples = len(points) * len(angles)

    kn, cs = [], []
    for p in points:
        k = frame_scalars(frame_jet(frame_field, p, cfg))
        kn.append((k.kn_t, k.kn_b))
        cs.append([k.normal_curvature(math.cos(om), math.sin(om))
                   for _, om in angles])
    # NaN-keeping folds, and NaN lands on the infeasible side.
    cs = np.array(cs)
    max_kn = _worst(np.abs(kn))
    max_spread = _worst(np.ptp(cs, axis=1))
    max_c = _worst(np.abs(cs))

    if not max_kn < 1e-8:
        return ConservationReport(False, "KappaNNonzero", None, None,
                                  samples)
    if not max_spread < 1e-8:
        return ConservationReport(False, "CDependsOnOmega", None, None,
                                  samples)
    if max_c < 1e-8:
        f_factor = lambda r: 1.0  # noqa: E731  flat leaves
        g_factor = lambda r: 1.0  # noqa: E731
    else:
        f_factor = lambda r: float(np.linalg.norm(r))  # noqa: E731
        g_factor = lambda r: 1.0  # noqa: E731
    return ConservationReport(True, "Feasible", f_factor, g_factor, samples)


def shape_operator_via_fundamental_forms(surface_parametrization, u, v,
                                         cfg: DiffConfig = DEFAULT_CFG
                                         ) -> ShapeOperator2x2:
    """Shape operator from first/second fundamental forms of a chart.

    Tangents use central differences with Richardson refinement at
    cfg.fd_step; second derivatives use a wider 3e-4 stencil to keep
    roundoff below the 1e-7 route-agreement budget.  The result is
    re-expressed in the orthonormalized (X_u, X_v) basis."""
    u, v = float(u), float(v)

    def chart(a, b):
        return np.asarray(surface_parametrization(a, b), dtype=float)

    h1 = cfg.fd_step

    def first(du, dv):
        def central(h):
            return (chart(u + h * du, v + h * dv)
                    - chart(u - h * du, v - h * dv)) / (2.0 * h)
        d = central(h1)
        if cfg.richardson:
            d = (4.0 * central(h1 / 2.0) - d) / 3.0
        return d

    x_u = first(1.0, 0.0)
    x_v = first(0.0, 1.0)
    g = np.array([[x_u @ x_u, x_u @ x_v], [x_u @ x_v, x_v @ x_v]])
    if float(np.linalg.det(g)) < 1e-12:
        raise DegenerateMetric("chart tangents nearly dependent")
    normal = np.cross(x_u, x_v)
    normal = normal / float(np.linalg.norm(normal))

    h2 = 3e-4
    center = chart(u, v)
    x_uu = (chart(u + h2, v) - 2.0 * center + chart(u - h2, v)) / (h2 * h2)
    x_vv = (chart(u, v + h2) - 2.0 * center + chart(u, v - h2)) / (h2 * h2)
    x_uv = (chart(u + h2, v + h2) - chart(u + h2, v - h2)
            - chart(u - h2, v + h2) + chart(u - h2, v - h2)) / (4.0 * h2 * h2)
    hform = -np.array([[x_uu @ normal, x_uv @ normal],
                       [x_uv @ normal, x_vv @ normal]])
    s_coord = np.linalg.solve(g, hform)

    e1 = x_u / float(np.linalg.norm(x_u))
    w = x_v - float(x_v @ e1) * e1
    e2 = w / float(np.linalg.norm(w))
    p = np.column_stack([x_u, x_v])
    q = np.column_stack([e1, e2])
    s_ortho = (q.T @ p) @ s_coord @ np.linalg.solve(g, p.T @ q)
    return ShapeOperator2x2(matrix=s_ortho, basis1=e1, basis2=e2,
                            normal=normal)


def kb_transform_residual(frame_field, r,
                          cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Mismatch of the overlap-corrected kappa^b reconstruction.

    Reported, never asserted: the reconstruction treats u -> kappa^u
    as linear, which fails off the orthogonal sections."""
    fid = getattr(frame_field, "fid", None)
    if not isinstance(fid, Ellipsoid):
        raise OutOfRange("kb transform defined for ellipsoid frames")
    a, bb, cc = fid.a, fid.b, fid.c
    r = np.asarray(r, dtype=float)

    def btil_field(p):
        x, y = p[0], p[1]
        px, py = x / a, y / bb
        return dm.normalize3((-a * py, bb * px, 0.0))

    jet = frame_jet(frame_field, r, cfg)
    kb_direct = -(jet.jb @ jet.b)
    kt = -(jet.jt @ jet.t)
    btil = np.asarray(btil_field(tuple(r)), dtype=float)
    kbtil = -directional_derivative(btil_field, r, btil, cfg)
    overlap = float(jet.t @ btil)
    reconstructed = (kbtil - overlap * kt) / (1.0 - overlap)
    return float(np.linalg.norm(kb_direct - reconstructed))


# ---------------------------------------------------------------------------
# Aggregated check suite.

def default_frames() -> dict:
    """Name -> ClosedFormId for the canonical verification set."""
    return {name: spec.default for name, spec in BUILTIN_FRAMES.items()}


def random_states(fid, count: int, rng) -> list:
    """Non-degenerate (r, mu, omega) samples in a frame's comfort zone."""
    sample = frame_spec(fid).sample
    out = []
    for _ in range(count):
        r = sample(fid, rng)
        mu = rng.uniform(-0.9, 0.9)
        omega = rng.uniform(0.0, TWO_PI)
        out.append((r, float(mu), float(omega)))
    return out


def _angle_grid(count: int, rng) -> list:
    return [(rng.uniform(-0.9, 0.9), rng.uniform(0.0, TWO_PI))
            for _ in range(count)]


def _frame_states(frames, count, rng):
    """(fid, field, r, mu, omega) for ``count`` random states of each
    frame; all of a frame's states are drawn before the first is used."""
    for fid in frames.values():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, count, rng):
            yield fid, field, r, mu, omega


def _sampled_check(rng, cfg, frames, count, per_state, residuals):
    """Worst residual and sample count over ``count`` random states of
    each frame, ``per_state`` samples each.  A state's frame jet is
    evaluated once and passed to ``residuals(fid, field, r, mu, omega,
    jet, rng, cfg)``, which returns that state's residuals.  The worst
    is NaN when any residual is, so the check fails."""
    found = []
    states = 0
    for fid, field, r, mu, omega in _frame_states(frames, count, rng):
        found.extend(residuals(fid, field, r, mu, omega,
                               frame_jet(field, r, cfg), rng, cfg))
        states += 1
    return _worst(found), per_state * states


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none, NaN if any is NaN (Python's
    max drops a NaN that is not its first argument)."""
    return float(np.max(residuals, initial=0.0))


def _catalog_residuals(fid, field, r, mu, omega, jet, rng, cfg):
    coeffs = coefficients_from_jet(jet, mu, omega, at_point=r)
    cat_mu, cat_om = catalog_coefficients(fid, r, mu, omega)
    return abs(coeffs.a_mu - cat_mu), abs(coeffs.a_omega - cat_om)


def _oracle_residuals(fid, field, r, mu, omega, jet, rng, cfg):
    coeffs = coefficients_from_jet(jet, mu, omega, at_point=r)
    direction = _direction(jet, mu, *_angles(mu, omega))
    oracle = ray_oracle(field, r, direction, 1e-3, cfg)
    return (abs(coeffs.a_mu - oracle.dmu_ds),
            abs(coeffs.a_omega - oracle.domega_ds))


def _form_residuals(fid, field, r, mu, omega, jet, rng, cfg):
    """The spread of each coefficient over its derivative routes, all
    from the one jet; a route whose foliation is missing is skipped."""
    angles = (mu, *_angles(mu, omega))
    spreads = []
    for grad, forms in ((grad_mu_from_jet, MuForm),
                        (grad_omega_from_jet, OmegaForm)):
        vals = []
        for form in forms:
            try:
                vals.append(grad(jet, *angles, form))
            except FoliationMissing:
                continue
        spreads.append(np.ptp(vals))  # NaN if any route gives NaN
    return spreads


def _identity_residuals(fid, field, r, mu, omega, jet, rng, cfg):
    """|u . grad_h u| and |u . grad_h v + v . grad_h u| for the frame
    vectors u, v along a random unit h."""
    h = rng.normal(size=3)
    h /= np.linalg.norm(h)
    vecs = (jet.n, jet.t, jet.b)
    rates = [jac @ h for jac in (jet.jn, jet.jt, jet.jb)]
    out = []
    for i in range(3):
        out.append(abs(float(vecs[i] @ rates[i])))
        for j in range(i + 1, 3):
            out.append(abs(float(vecs[i] @ rates[j])
                           + float(vecs[j] @ rates[i])))
    return out


def _homothety_residuals(fid, field, r, mu, omega, jet, rng, cfg):
    """Relative misfit of a(scale r) = a(r) / scale at three scales;
    each scaled point has its own jet."""
    base = coefficients_from_jet(jet, mu, omega, at_point=r)
    out = []
    for scale in (0.5, 2.0, 10.0):
        scaled = streaming_coefficients(field, scale * r, mu, omega, cfg)
        for lead, trail in ((base.a_mu, scaled.a_mu),
                            (base.a_omega, scaled.a_omega)):
            out.append(abs(scale * trail - lead) / max(abs(lead), 1e-12))
    return out


def _check_conservation(frames, rng, cfg):
    bad = 0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        points = [r for r, _, _ in random_states(fid, 64, rng)]
        angles = _angle_grid(16, rng)
        report = conservation_check(field, points, angles, cfg)
        samples += report.samples_checked
        if ((report.feasible, report.reason)
                != BUILTIN_FRAMES[name].conservation):
            bad += 1
    return float(bad), samples


def _latitude_loop(theta: float, steps: int):
    """The unit-sphere latitude loop at polar angle theta, a start
    vector tangent to it, and its holonomy 2 pi (1 - cos theta)."""
    phi = np.linspace(0.0, TWO_PI, steps + 1)
    loop = np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta) * np.ones_like(phi)])
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    return loop, v0, TWO_PI * (1.0 - math.cos(theta))


def _circle_loop(radius: float, steps: int):
    """A circle in the plane z = 0, a start vector, and its holonomy 0."""
    phi = np.linspace(0.0, TWO_PI, steps + 1)
    loop = np.column_stack([radius * np.cos(phi), radius * np.sin(phi),
                            np.zeros_like(phi)])
    return loop, np.array([1.0, 0.0, 0.0]), 0.0


def _check_holonomy(theta: float):
    sphere = builtin_frame(Sphere())
    errs = []
    for steps in (1000, 2000):
        loop, v0, expected = _latitude_loop(theta, steps)
        errs.append(abs(parallel_transport_holonomy(sphere, loop, v0)
                        - expected))
    loop, v0, _ = _circle_loop(1.0, 2000)
    plane_angle = parallel_transport_holonomy(builtin_frame(Constant()),
                                              loop, v0)
    converges = errs[1] <= errs[0] / 2.0 + 1e-12
    residual = _worst([errs[1], abs(plane_angle)])
    return (residual if converges else max(residual, 1.0)), 3


def _check_kb_transform(cfg):
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    theta, phi = math.pi / 3.0, math.pi / 4.0
    r = np.array([2.0 * math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    return kb_transform_residual(field, r, cfg), 1


_CHECK_TOLS = {
    "catalog-agreement": 1e-7,
    "oracle-agreement": 1e-6,
    "form-equivalence": 1e-8,
    "frame-identities": 1e-8,
    "homothety": 1e-8,
    "conservation-trichotomy": 0.0,
    "holonomy-convergence": 1e-3,
    "kb-transform-residual": 0.0,
}


def selected_checks(check_filter: str = None) -> list:
    """Names of the checks whose name contains ``check_filter``, in run
    order; all of them when it is None.  Raises OutOfRange when none
    matches."""
    names = [name for name in _CHECK_TOLS
             if check_filter is None or check_filter in name]
    if not names:
        raise OutOfRange(f"unknown check {check_filter!r}; checks are "
                         + ", ".join(_CHECK_TOLS))
    return names


def run_checks(frame_filter: str = None, check_filter: str = None,
               seed: int = 0, cfg: DiffConfig = DEFAULT_CFG,
               holonomy_theta: float = math.pi / 3.0) -> list:
    """Run the verification suite; returns a list of CheckResult."""
    frames = default_frames()
    if frame_filter is not None:
        if frame_filter not in frames:
            raise OutOfRange(f"unknown frame {frame_filter!r}")
        frames = {frame_filter: frames[frame_filter]}
    wanted = selected_checks(check_filter)
    rng = np.random.default_rng(seed)
    results = []

    def add(name, worst, samples, report_only=False):
        tol = _CHECK_TOLS[name]
        if report_only:
            status = "report-only"
        else:
            status = "pass" if worst <= tol else "fail"
        results.append(CheckResult(name=name, status=status,
                                   max_residual=float(worst),
                                   tolerance=tol, samples=samples))

    homothetic = {name: fid for name, fid in frames.items()
                  if frame_spec(fid).homothetic}
    # name -> (frames, states per frame, samples per state, residuals)
    sampled = {
        "catalog-agreement": (frames, 60, 1, _catalog_residuals),
        "oracle-agreement": (frames, 40, 1, _oracle_residuals),
        "form-equivalence": (frames, 40, 1, _form_residuals),
        "frame-identities": (frames, 40, 1, _identity_residuals),
        "homothety": (homothetic, 20, 3, _homothety_residuals),
    }
    for name in wanted:
        if name in sampled:
            add(name, *_sampled_check(rng, cfg, *sampled[name]))
        elif name == "conservation-trichotomy":
            add(name, *_check_conservation(frames, rng, cfg))
        elif name == "holonomy-convergence":
            add(name, *_check_holonomy(holonomy_theta))
        else:
            add(name, *_check_kb_transform(cfg), report_only=True)
    return results
