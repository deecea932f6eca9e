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
                          frame_jet)
from .errors import (DegenerateMetric, DomainExit, FoliationMissing,
                     InconsistentReport, OutOfRange, PolarDirection,
                     UnwrapFailure)
from .frames import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                     Graph, Paraboloid, Sphere, builtin_frame)
from .streaming import (MuForm, OmegaForm, coefficients_from_jet, grad_mu,
                        grad_omega, streaming_coefficients)

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
    an independent oracle for the streaming coefficients.
    """
    r = np.asarray(r, dtype=float)
    d = np.asarray(omega_dir, dtype=float)
    if abs(float(d @ d) - 1.0) > 1e-10:
        raise OutOfRange("ray direction must be unit")

    def angles_at(s):
        p = r + s * d
        try:
            n, t, b = frame_field.raw(p[0], p[1], p[2])
        except Exception as exc:
            raise DomainExit(f"ray probe left the domain at s={s}") from exc
        n = np.asarray(n, dtype=float)
        t = np.asarray(t, dtype=float)
        b = np.asarray(b, dtype=float)
        mu = float(d @ n)
        return mu, math.atan2(float(d @ b), float(d @ t))

    mu0, _ = angles_at(0.0)
    if 1.0 - mu0 * mu0 <= 1e-10:
        raise PolarDirection("ray parallel to n at the base point")

    ss = [-step, -step / 2.0, 0.0, step / 2.0, step]
    mus = []
    oms = []
    prev = None
    for s in ss:
        mu, om = angles_at(s)
        if prev is not None:
            jump = om - prev
            jump -= TWO_PI * round(jump / TWO_PI)
            if abs(jump) > math.pi / 2.0:
                raise UnwrapFailure(
                    f"azimuth jump {jump:.3f} between probes; "
                    "reduce the step or move off the polar direction")
            om = prev + jump
        prev = om
        mus.append(mu)
        oms.append(om)

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

    max_kn = 0.0
    max_spread = 0.0
    max_c = -math.inf
    for p in points:
        jet = frame_jet(frame_field, p, cfg)
        kn = -(jet.jn @ jet.n)
        max_kn = max(max_kn, float(np.max(np.abs(kn))))
        s_tt = float(jet.t @ (jet.jn @ jet.t))
        s_tb = float(jet.t @ (jet.jn @ jet.b))
        s_bt = float(jet.b @ (jet.jn @ jet.t))
        s_bb = float(jet.b @ (jet.jn @ jet.b))
        cs = []
        for _, om in angles:
            c, sn = math.cos(om), math.sin(om)
            cs.append(c * c * s_tt + sn * c * (s_tb + s_bt)
                      + sn * sn * s_bb)
        max_spread = max(max_spread, max(cs) - min(cs))
        max_c = max(max_c, max(abs(v) for v in cs))

    if max_kn >= 1e-8:
        return ConservationReport(False, "KappaNNonzero", None, None,
                                  samples)
    if max_spread >= 1e-8:
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

def default_graph_id() -> Graph:
    """The reference graph surface f = sin(x) + y^2/2."""
    return Graph(f=lambda x, y: math.sin(x) + 0.5 * y * y,
                 f_x=lambda x, y: math.cos(x),
                 f_y=lambda x, y: y,
                 f_xx=lambda x, y: -math.sin(x),
                 f_xy=lambda x, y: 0.0,
                 f_yy=lambda x, y: 1.0)


def default_frames() -> dict:
    """Name -> ClosedFormId for the canonical verification set."""
    return {
        "constant": Constant(),
        "cylindrical-i": CylindricalI(),
        "cylindrical-ii": CylindricalII(),
        "sphere": Sphere(),
        "ellipsoid": Ellipsoid(2.0, 1.0, 1.0),
        "paraboloid": Paraboloid(1.0, 2.0),
        "graph": default_graph_id(),
    }


def random_states(fid, count: int, rng) -> list:
    """Non-degenerate (r, mu, omega) samples in a frame's comfort zone."""
    out = []
    for _ in range(count):
        if isinstance(fid, (CylindricalI, CylindricalII)):
            rho = rng.uniform(0.5, 3.0)
            phi = rng.uniform(0.0, TWO_PI)
            r = np.array([rho * math.cos(phi), rho * math.sin(phi),
                          rng.uniform(-2.0, 2.0)])
        elif isinstance(fid, Sphere):
            rho = rng.uniform(0.5, 3.0)
            theta = rng.uniform(0.3, math.pi - 0.3)
            phi = rng.uniform(0.0, TWO_PI)
            r = rho * np.array([math.sin(theta) * math.cos(phi),
                                math.sin(theta) * math.sin(phi),
                                math.cos(theta)])
        elif isinstance(fid, Ellipsoid):
            lam = rng.uniform(0.5, 2.0)
            theta = rng.uniform(0.3, math.pi - 0.3)
            phi = rng.uniform(0.0, TWO_PI)
            r = lam * np.array([
                fid.a * math.sin(theta) * math.cos(phi),
                fid.b * math.sin(theta) * math.sin(phi),
                fid.c * math.cos(theta)])
        elif isinstance(fid, (Paraboloid, Graph)):
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(-1.5, 1.5)
            if isinstance(fid, Paraboloid):
                z = fid.a * x * x + fid.b * y * y
            else:
                z = float(fid.f(x, y))
            r = np.array([x, y, z])
        else:
            r = rng.uniform(-2.0, 2.0, size=3)
        mu = rng.uniform(-0.9, 0.9)
        omega = rng.uniform(0.0, TWO_PI)
        out.append((r, float(mu), float(omega)))
    return out


def _angle_grid(count: int, rng) -> list:
    return [(rng.uniform(-0.9, 0.9), rng.uniform(0.0, TWO_PI))
            for _ in range(count)]


def _check_catalog(frames, rng, cfg):
    worst = 0.0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, 60, rng):
            coeffs = streaming_coefficients(field, r, mu, omega, cfg)
            cat_mu, cat_om = catalog_coefficients(fid, r, mu, omega)
            worst = max(worst, abs(coeffs.a_mu - cat_mu),
                        abs(coeffs.a_omega - cat_om))
            samples += 1
    return worst, samples


def _check_oracle(frames, rng, cfg):
    worst = 0.0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, 40, rng):
            jet = frame_jet(field, r, cfg)
            coeffs = coefficients_from_jet(jet, mu, omega, at_point=r)
            direction = (mu * jet.n
                         + math.sqrt(1.0 - mu * mu)
                         * (math.cos(omega) * jet.t
                            + math.sin(omega) * jet.b))
            oracle = ray_oracle(field, r, direction, 1e-3, cfg)
            worst = max(worst, abs(coeffs.a_mu - oracle.dmu_ds),
                        abs(coeffs.a_omega - oracle.domega_ds))
            samples += 1
    return worst, samples


def _check_forms(frames, rng, cfg):
    worst = 0.0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, 40, rng):
            mu_vals = [grad_mu(field, r, mu, omega, MuForm.CURVE_CURVATURE,
                               cfg)]
            try:
                mu_vals.append(grad_mu(field, r, mu, omega,
                                       MuForm.SURFACE_CURVATURE, cfg))
            except FoliationMissing:
                pass
            om_vals = []
            for form in OmegaForm:
                try:
                    om_vals.append(grad_omega(field, r, mu, omega, form,
                                              cfg))
                except FoliationMissing:
                    continue
            worst = max(worst, max(mu_vals) - min(mu_vals),
                        max(om_vals) - min(om_vals))
            samples += 1
    return worst, samples


def _check_identities(frames, rng, cfg):
    worst = 0.0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        for r, _, _ in random_states(fid, 40, rng):
            jet = frame_jet(field, r, cfg)
            h = rng.normal(size=3)
            h /= np.linalg.norm(h)
            vecs = (jet.n, jet.t, jet.b)
            jacs = (jet.jn, jet.jt, jet.jb)
            for i in range(3):
                worst = max(worst, abs(float(vecs[i] @ (jacs[i] @ h))))
                for j in range(i + 1, 3):
                    cross = (float(vecs[i] @ (jacs[j] @ h))
                             + float(vecs[j] @ (jacs[i] @ h)))
                    worst = max(worst, abs(cross))
            samples += 1
    return worst, samples


def _check_homothety(frames, rng, cfg):
    worst = 0.0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        if not field.homothetic:
            continue
        for r, mu, omega in random_states(fid, 20, rng):
            base = streaming_coefficients(field, r, mu, omega, cfg)
            for scale in (0.5, 2.0, 10.0):
                scaled = streaming_coefficients(field, scale * r, mu,
                                                omega, cfg)
                for lead, trail in ((base.a_mu, scaled.a_mu),
                                    (base.a_omega, scaled.a_omega)):
                    ref = max(abs(lead), 1e-12)
                    worst = max(worst, abs(scale * trail - lead) / ref)
                samples += 1
    return worst, samples


def _check_conservation(frames, rng, cfg):
    expected = {"constant": (True, "Feasible"),
                "cylindrical-i": (True, "Feasible"),
                "cylindrical-ii": (False, "CDependsOnOmega"),
                "sphere": (True, "Feasible"),
                "ellipsoid": (False, "KappaNNonzero"),
                "paraboloid": (False, "KappaNNonzero"),
                "graph": (False, "KappaNNonzero")}
    bad = 0
    samples = 0
    for name, fid in frames.items():
        field = builtin_frame(fid)
        points = [r for r, _, _ in random_states(fid, 64, rng)]
        angles = _angle_grid(16, rng)
        report = conservation_check(field, points, angles, cfg)
        samples += report.samples_checked
        want = expected.get(name)
        if want is not None and (report.feasible, report.reason) != want:
            bad += 1
    return float(bad), samples


def _latitude_loop(theta: float, steps: int) -> np.ndarray:
    phi = np.linspace(0.0, TWO_PI, steps + 1)
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta) * np.ones_like(phi)])


def _circle_loop(radius: float, steps: int) -> np.ndarray:
    phi = np.linspace(0.0, TWO_PI, steps + 1)
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi),
                            np.zeros_like(phi)])


def _check_holonomy(theta: float):
    sphere = builtin_frame(Sphere())
    expected = TWO_PI * (1.0 - math.cos(theta))
    errs = []
    for steps in (1000, 2000):
        v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
        angle = parallel_transport_holonomy(sphere,
                                            _latitude_loop(theta, steps), v0)
        errs.append(abs(angle - expected))
    plane = builtin_frame(Constant())
    plane_angle = parallel_transport_holonomy(plane, _circle_loop(1.0, 2000),
                                              np.array([1.0, 0.0, 0.0]))
    converges = errs[1] <= errs[0] / 2.0 + 1e-12
    residual = max(errs[1], abs(plane_angle))
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

    if "catalog-agreement" in wanted:
        add("catalog-agreement", *_check_catalog(frames, rng, cfg))
    if "oracle-agreement" in wanted:
        add("oracle-agreement", *_check_oracle(frames, rng, cfg))
    if "form-equivalence" in wanted:
        add("form-equivalence", *_check_forms(frames, rng, cfg))
    if "frame-identities" in wanted:
        add("frame-identities", *_check_identities(frames, rng, cfg))
    if "homothety" in wanted:
        add("homothety", *_check_homothety(frames, rng, cfg))
    if "conservation-trichotomy" in wanted:
        add("conservation-trichotomy",
            *_check_conservation(frames, rng, cfg))
    if "holonomy-convergence" in wanted:
        add("holonomy-convergence", *_check_holonomy(holonomy_theta))
    if "kb-transform-residual" in wanted:
        add("kb-transform-residual", *_check_kb_transform(cfg),
            report_only=True)
    return results
