"""Independent truth sources: straight-ray oracle, conservation-form
feasibility, fundamental-forms shape operator, and the aggregated
check suite behind ``verify``."""
from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

from . import dual as dm
from .catalog import catalog_coefficients
from .curvature import ShapeOperator2x2, parallel_transport_holonomy
from .derivatives import (DEFAULT_CFG, DiffConfig, _direction, _dot,
                          _matvec, directional_derivative, frame_jet,
                          frame_scalars)
from .errors import (DegenerateMetric, DomainExit, InconsistentReport,
                     OutOfRange, PolarDirection, UnwrapFailure)
from .frames import (BUILTIN_FRAMES, Constant, Ellipsoid, Sphere, _each,
                     any_true, builtin_frame, float_angles, float_array,
                     frame_spec, on_stack, raw_parts)
from .frames import default_graph_id  # noqa: F401  (re-exported)
from .streaming import (MuForm, OmegaForm, angle_arrays, check_mu,
                        checked_terms, grad_mu_from_jet, grad_omega_from_jet,
                        has_leaf)

TWO_PI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class RayOracleResult:
    """Finite-difference derivatives of (mu, omega) along a straight ray:
    floats for one ray, arrays of one entry per ray for a stack."""

    dmu_ds: float
    domega_ds: float
    step: float
    richardson_error_estimate: float

    def __post_init__(self):
        if any_true(self.richardson_error_estimate < 0.0):
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


def ray_oracle(frame_field, r, omega_dir, step: float = 1e-3
               ) -> RayOracleResult:
    """d(mu)/ds and d(omega)/ds along the straight ray r + s*omega_dir.

    Central differences of mu(s) = Omega . n(r + s Omega) and of the
    branch-unwrapped azimuth, Richardson-extrapolated over {step,
    step/2}.  This never consults the differential engines, so it is
    an independent oracle for the streaming coefficients.  The s = 0
    probe serves both the polar test and the stencil: five raw calls.

    r and omega_dir may also be (N, 3) arrays of N rays; the result then
    holds arrays of N values, from one raw call on all 5N probes (see
    _stacked_rays).  Each entry has the bits of the single-ray result,
    and a stack with a failing ray raises what the first failing ray
    raises on its own.
    """
    r = float_array(r, "ray point")
    d = float_array(omega_dir, "ray direction")
    if not 0.0 < step < math.inf:
        raise OutOfRange(f"ray step must be positive and finite, not {step}")
    if r.ndim == 2 and r.shape[1:] == (3,) and d.shape == r.shape:
        dmu, dom, est = on_stack(
            lambda: _stacked_rays(frame_field, r, d, step),
            lambda: np.array([_one_ray(frame_field, p, q, step)
                              for p, q in zip(r, d)]).reshape(-1, 3).T,
            r, d)
    elif r.shape == (3,) and d.shape == (3,):
        dmu, dom, est = _one_ray(frame_field, r, d, step)
    else:
        raise OutOfRange("ray point and direction must be 3-vectors, or "
                         "(N, 3) arrays of one shape")
    return RayOracleResult(dmu_ds=dmu, domega_ds=dom, step=step,
                           richardson_error_estimate=est)


# The raw of a probe not taken: NaN, which no check of _ray_rates fails.
_NAN_FRAME = ((math.nan,) * 3,) * 3


def _one_ray(frame_field, r, d, step):
    """(dmu_ds, domega_ds, richardson_error_estimate) of one ray, as
    Python floats, from five raw calls."""
    if abs(float(d @ d) - 1.0) > 1e-10:
        raise OutOfRange("ray direction must be unit")
    # The probes run in the order the checks need them: s = 0 first, then
    # the stencil from -step up, stopping at the first that fails; its
    # DomainExit is raised only after the checks on the probes before it,
    # which see NaN at the probes not taken.
    ss = [-step, -step / 2.0, 0.0, step / 2.0, step]
    rows = (r + np.multiply.outer(np.array(ss), d)).tolist()
    outs = [_NAN_FRAME] * 5
    failure = None
    for k in (2, 0, 1, 3, 4):
        try:
            outs[k] = frame_field.raw(*rows[k])
        except Exception as exc:
            if k == 2:
                raise DomainExit(
                    f"ray probe left the domain at s={ss[k]}") from exc
            failure = k, exc
            break
    # Omega . (n, t, b) of each probe as a row-by-row dot, which rounds
    # as d @ n does (a stacked matvec does not).
    # A flat list converts faster than a nested one.
    f = np.array([(*n, *t, *b) for n, t, b in outs],
                 dtype=float).reshape(5, 3, 3)
    found = _ray_rates(*np.matmul(f[:, :, None, :], d)[:, :, 0].T.tolist(),
                       step)
    if failure is not None:
        k, exc = failure
        raise DomainExit(f"ray probe left the domain at s={ss[k]}") from exc
    return found


def _stacked_rays(frame_field, r, d, step):
    """(dmu_ds, domega_ds, richardson_error_estimate) arrays of the rays
    along the rows of the (N, 3) arrays r and d, from one raw call on
    all 5N probes.  Raises where a ray needs the single-ray path: a
    direction that is not unit, a failing probe, a polar ray or an
    azimuth jump; ray_oracle calls it through on_stack, whose replay is
    the single-ray path, ray by ray.

    Each Omega . (n, t, b) is a row-by-row dot as ``d @ n`` takes it,
    and _ray_rates gives each entry the arithmetic of one ray.
    """
    if any_true(abs(_dot(d, d) - 1.0) > 1e-10):
        raise OutOfRange("ray direction must be unit")
    ss = np.array([-step, -step / 2.0, 0.0, step / 2.0, step])
    probes = (r[:, None, :] + ss[:, None] * d[:, None, :]).reshape(-1, 3)
    f = raw_parts(frame_field, probes)[0].reshape(-1, 5, 3, 3)
    return _ray_rates(*_dot(d[:, None, None, :], f).T, step)


def _ray_rates(mus, dts, dbs, step):
    """(dmu_ds, domega_ds, richardson_error_estimate) from Omega . n,
    Omega . t and Omega . b at the probes s = -step, -step/2, 0, step/2,
    step: five floats each for one ray, or five arrays of one entry per
    ray.  PolarDirection where a ray runs along n at s = 0, and
    UnwrapFailure where its azimuth jumps between probes.  Array entries
    get the bits of floats: the arithmetic rounds alike on both, and the
    math calls run per entry."""
    if any_true(1.0 - mus[2] * mus[2] <= 1e-10):
        raise PolarDirection("ray parallel to n at the base point")
    oms = [_each(math.atan2, dbs[0], dts[0])]
    for k in range(1, 5):
        oms.append(_each(_next_azimuth, oms[k - 1], dbs[k], dts[k]))
    dmu_h = (mus[4] - mus[0]) / (2.0 * step)
    dom_h = (oms[4] - oms[0]) / (2.0 * step)
    dmu_h2 = (mus[3] - mus[1]) / (2.0 * (step / 2.0))
    dom_h2 = (oms[3] - oms[1]) / (2.0 * (step / 2.0))
    return ((4.0 * dmu_h2 - dmu_h) / 3.0, (4.0 * dom_h2 - dom_h) / 3.0,
            _each(_richardson_error, abs(dmu_h2 - dmu_h),
                  abs(dom_h2 - dom_h)))


def _next_azimuth(prev: float, db: float, dt: float) -> float:
    """The azimuth atan2(db, dt) moved by whole turns next to that of
    the probe before, prev; UnwrapFailure where they stay more than
    pi/2 apart."""
    jump = math.atan2(db, dt) - prev
    if not math.isnan(jump):  # a NaN azimuth flows into domega_ds
        jump -= TWO_PI * round(jump / TWO_PI)
    if abs(jump) > math.pi / 2.0:
        raise UnwrapFailure(
            f"azimuth jump {jump:.3f} between probes; "
            "reduce the step or move off the polar direction")
    return prev + jump


def _richardson_error(err_mu: float, err_om: float) -> float:
    # NaN-keeping: Python's max drops a NaN that is not its first argument.
    return (math.nan if math.isnan(err_mu + err_om)
            else max(err_mu, err_om)) / 3.0


def conservation_check(frame_field, sample_points, sample_angles,
                       cfg: DiffConfig = DEFAULT_CFG) -> ConservationReport:
    """Feasibility of a divergence rewriting of the streaming term.

    Feasible only when kappa^n vanishes and the leaf normal curvature
    C(r, omega) is azimuth-independent at every sample; the two known
    factor pairs are emitted for flat and spherical leaves."""
    points = float_array(sample_points, "sample points")
    angles = [float_angles(mu, om) for mu, om in sample_angles]
    if len(points) < 8 or len(angles) < 8:
        raise OutOfRange("need at least 8 spatial and 8 angular samples")
    samples = len(points) * len(angles)

    k = frame_scalars(frame_jet(frame_field, points, cfg))
    # C at each angle (rows) and point (columns).
    cs = k.normal_curvature(np.array([[math.cos(om)] for _, om in angles]),
                            np.array([[math.sin(om)] for _, om in angles]))
    # NaN-keeping folds, and NaN lands on the infeasible side.
    max_kn = _worst(np.abs([k.kn_t, k.kn_b]))
    max_spread = _worst(np.ptp(cs, axis=0))
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
    r = float_array(r, "point")

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


_ANGLE_BOX = ((-0.9, 0.9), (0.0, TWO_PI))


def _uniform_rows(rng, count, box) -> list:
    """``count`` rows of Python floats, one uniform draw in each (low,
    high) range of ``box`` per row: one generator call whose doubles,
    consumed in the same order, are those of a scalar
    ``rng.uniform(low, high)`` call per entry, row by row.  Raises
    OutOfRange for a count that is not a nonnegative integer."""
    try:
        rows = operator.index(count)
    except TypeError:
        rows = -1
    if rows < 0:
        raise OutOfRange(f"count must be a nonnegative integer, not "
                         f"{count!r}")
    low, high = np.array(box).T
    return rng.uniform(low, high, size=(rows, len(box))).tolist()


def random_states(fid, count: int, rng) -> list:
    """Non-degenerate (r, mu, omega) samples in a frame's comfort zone:
    the draws of each sample's point, placed by its registry row, then
    mu in (-0.9, 0.9) and omega in (0, 2 pi)."""
    spec = frame_spec(fid)
    place = spec.place(fid)
    k = len(spec.box)
    rows = _uniform_rows(rng, count, spec.box + _ANGLE_BOX)
    points = np.array([place(*row[:k]) for row in rows], dtype=float)
    return [(r, row[k], row[k + 1]) for r, row in zip(points, rows)]


def _angle_grid(count: int, rng) -> list:
    """``count`` (mu, omega) pairs drawn as random_states draws them."""
    return list(map(tuple, _uniform_rows(rng, count, _ANGLE_BOX)))


def _points(states):
    """The (N, 3) array of the points of (r, mu, omega) states."""
    return np.array([r for r, _, _ in states])


def _sampled_check(rng, cfg, frames, count, per_state, residuals):
    """Worst residual and sample count over ``count`` random states of
    each frame, ``per_state`` samples each.  All of a frame's states are
    drawn first; then one stacked frame jet at their points is passed to
    ``residuals(fid, field, states, jet, rng, cfg)``, which returns an
    array of the residuals of those states.  The worst is NaN when any
    residual is, so the check fails."""
    found = [np.zeros(0)]
    states = 0
    for fid in frames.values():
        field = builtin_frame(fid)
        drawn = random_states(fid, count, rng)
        jet = frame_jet(field, _points(drawn), cfg)
        found.append(residuals(fid, field, drawn, jet, rng, cfg))
        states += len(drawn)
    return _worst(np.concatenate(found)), per_state * states


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none, NaN if any is NaN (Python's
    max drops a NaN that is not its first argument)."""
    return float(np.max(residuals, initial=0.0))


def _coefficients(jet, states):
    """a_mu and a_omega arrays at the states of a stacked jet, checked
    as coefficients_from_jet checks each state, and the angle arrays
    (mu, s, c, sn) of the states."""
    angles = angle_arrays([mu for _, mu, _ in states],
                          [omega for _, _, omega in states])
    check_mu(angles[0])
    a_mu, a_omega = checked_terms(jet, *angles)[:2]
    return a_mu, a_omega, angles


def _catalog_residuals(fid, field, states, jet, rng, cfg):
    a_mu, a_omega, angles = _coefficients(jet, states)
    cat_mu, cat_om = catalog_coefficients(
        fid, _points(states), angles[0],
        np.array([omega for _, _, omega in states]))
    return np.abs(np.concatenate([a_mu - cat_mu, a_omega - cat_om]))


def _oracle_residuals(fid, field, states, jet, rng, cfg):
    a_mu, a_omega, angles = _coefficients(jet, states)
    oracle = ray_oracle(field, _points(states), _direction(jet, *angles))
    return np.abs(np.concatenate([a_mu - oracle.dmu_ds,
                                  a_omega - oracle.domega_ds]))


def _form_residuals(fid, field, states, jet, rng, cfg):
    """The spread of each coefficient over its routes at each state,
    less the routes whose leaf is missing there; NaN if a kept one is."""
    angles = angle_arrays([mu for _, mu, _ in states],
                          [omega for _, _, omega in states])
    spreads = []
    for grad, forms in ((grad_mu_from_jet, MuForm),
                        (grad_omega_from_jet, OmegaForm)):
        vals = np.array([grad(jet, *angles, form) for form in forms])
        kept = np.array([has_leaf(jet, form) for form in forms])
        spreads.append(np.max(vals, axis=0, where=kept, initial=-np.inf)
                       - np.min(vals, axis=0, where=kept, initial=np.inf))
    return np.concatenate(spreads)


def _identity_residuals(fid, field, states, jet, rng, cfg):
    """|u . grad_h u| and |u . grad_h v + v . grad_h u| for the frame
    vectors u, v along a random unit h, one h per state."""
    h = rng.normal(size=(len(states), 3))
    h /= np.sqrt(_dot(h, h))[:, None]
    vecs = (jet.n, jet.t, jet.b)
    rates = [_matvec(jac, h) for jac in (jet.jn, jet.jt, jet.jb)]
    out = []
    for a in range(3):
        out.append(_dot(vecs[a], rates[a]))
        for b in range(a + 1, 3):
            out.append(_dot(vecs[a], rates[b]) + _dot(vecs[b], rates[a]))
    return np.abs(np.concatenate(out))


_SCALES = (0.5, 2.0, 10.0)


def _homothety_residuals(fid, field, states, jet, rng, cfg):
    """Relative misfit of a(scale r) = a(r) / scale at three scales; the
    scaled points of all states share one stacked jet.

    The misfit is relative to |a(r)|, floored at the coefficient scale
    1/|r| that homothety fixes: where a(r) nearly vanishes, a fixed
    floor would read the fd engine's absolute error as a large relative
    one."""
    a_mu, a_omega, _ = _coefficients(jet, states)
    scaled_states = [(scale * r, mu, omega) for r, mu, omega in states
                     for scale in _SCALES]
    scaled_jet = frame_jet(field, _points(scaled_states), cfg)
    s_mu, s_omega, _ = _coefficients(scaled_jet, scaled_states)
    lead = np.repeat([a_mu, a_omega], len(_SCALES), axis=1)
    trail = np.array([s_mu, s_omega])
    scales = np.tile(_SCALES, len(states))
    radii = np.linalg.norm(_points(states), axis=1)
    floor = np.repeat(1.0 / radii, len(_SCALES))
    return (np.abs(scales * trail - lead)
            / np.maximum(np.abs(lead), floor)).ravel()


def sampled_conservation(fid, rng,
                         cfg: DiffConfig = DEFAULT_CFG) -> ConservationReport:
    """conservation_check of the frame ``fid`` names at 64 of its random
    points and 16 random angles, drawn from rng in that order."""
    points = [r for r, _, _ in random_states(fid, 64, rng)]
    return conservation_check(builtin_frame(fid), points,
                              _angle_grid(16, rng), cfg)


def _check_conservation(frames, rng, cfg):
    bad = 0
    samples = 0
    for name, fid in frames.items():
        report = sampled_conservation(fid, rng, cfg)
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
