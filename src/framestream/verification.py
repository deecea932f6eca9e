"""Independent truth sources: straight-ray oracle, conservation-form
feasibility, fundamental-forms shape operator, and the aggregated
check suite behind ``verify``.

One ray builds its probes and runs its arithmetic on Python floats, in
the operation order of a stack of rays, and uses numpy only for the
contraction Omega . (n, t, b), so one ray and a stack give the same
bits.

The check suite runs in two phases.  Every selected check first takes
its draws from the one seeded generator, in run order: a check over
random states (a _Sampled row) draws each frame's states and extra
draws, and converts the angles of all of them at once; any other check
runs at its turn.  Then each frame makes one stacked frame jet at the
points of every sampled check, and the frames' jets are joined into one
pass-wide jet.  The checks that read the coefficients (catalog, oracle
and homothety) take them from one checked_terms call over all their
rows of it, the only place verify assembles them.  Every check then
runs frame by frame on its own rows.  A stacked jet gives each row the
bits of the single-point jet, and a stacked assembly or residual each
state the bits of its own, so each check reports what it would report
alone."""
from __future__ import annotations

import dataclasses
import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from . import dual as dm
from .catalog import catalog_coefficients
from .curvature import ShapeOperator2x2, parallel_transport_holonomy
from .derivatives import (DEFAULT_CFG, DiffConfig, FrameJet, _direction,
                          _dot, _matvec, directional_derivative, frame_jet,
                          frame_scalars)
from .errors import (DegenerateMetric, DomainExit, EvaluationFailure,
                     InconsistentReport, OutOfRange, PolarDirection,
                     UnwrapFailure)
from .frames import (BUILTIN_FRAMES, Constant, Ellipsoid, Sphere, _each,
                     _flat_raw, all_true, angle_arrays, any_true,
                     builtin_frame, check_mu, float_3vector, float_array,
                     float_scalar, frame_spec, on_stack, raw_parts,
                     unit_within)
from .frames import default_graph_id  # noqa: F401  (re-exported)
from .streaming import checked_terms

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
    step = float_scalar(step, "ray step")
    if not 0.0 < step < math.inf:
        raise OutOfRange(f"ray step must be positive and finite, not {step}")
    if r.ndim == 2 and r.shape[1:] == (3,) and d.shape == r.shape:
        dmu, dom, est = on_stack(
            lambda: _stacked_rays(frame_field, r, d, step),
            lambda p, q: _one_ray(frame_field, p, q, step), r, d)
    elif r.shape == (3,) and d.shape == (3,):
        dmu, dom, est = _one_ray(frame_field, r, d, step)
    else:
        raise OutOfRange("ray point and direction must be 3-vectors, or "
                         "(N, 3) arrays of one shape")
    return RayOracleResult(dmu_ds=dmu, domega_ds=dom, step=step,
                           richardson_error_estimate=est)


# The raw of a probe not taken: NaN, which no check of _ray_rates fails.
_NAN_FRAME = (math.nan,) * 9


def _one_ray(frame_field, r, d, step):
    """(dmu_ds, domega_ds, richardson_error_estimate) of one ray, as
    Python floats, from five raw calls.  A raw that raises at a probe
    gives DomainExit; one whose vectors are not 3 long, the
    EvaluationFailure of raw_components."""
    (x, y, z), (u, v, w) = r.tolist(), d.tolist()
    if not unit_within(d, 1e-10, (u, v, w)):
        raise OutOfRange("ray direction must be unit")
    # The probes run in the order the checks need them: s = 0 first, then
    # the stencil from -step up, stopping at the first that fails; its
    # DomainExit is raised only after the checks on the probes before it,
    # which see NaN at the probes not taken.
    ss = [-step, -step / 2.0, 0.0, step / 2.0, step]
    # The probes on floats, in the operation order of _stacked_rays.
    rows = [(x + s * u, y + s * v, z + s * w) for s in ss]
    outs = [_NAN_FRAME] * 5
    failure = None
    for k in (2, 0, 1, 3, 4):
        try:
            outs[k] = _flat_raw(frame_field.raw(*rows[k]), rows[k])
        except EvaluationFailure:
            raise
        except Exception as exc:
            if k == 2:
                raise DomainExit(
                    f"ray probe left the domain at s={ss[k]}") from exc
            failure = k, exc
            break
    # Omega . (n, t, b) of each probe as a row-by-row dot, which rounds
    # as d @ n does (a stacked matvec does not), on the values packed flat.
    f = np.fromiter(sum(outs, ()), float, 45).reshape(15, 1, 3)
    found = _ray_rates(*np.matmul(f, d).reshape(5, 3).T.tolist(), step)
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
    if not all_true(abs(_dot(d, d) - 1.0) <= 1e-10):
        raise OutOfRange("ray direction must be unit")
    ss = np.array([-step, -step / 2.0, 0.0, step / 2.0, step])
    probes = (r[:, None, :] + ss[:, None] * d[:, None, :]).reshape(-1, 3)
    f = raw_parts(frame_field, probes)[0].reshape(-1, 5, 3, 3)
    return _ray_rates(*_dot(d[:, None, None, :], f).T, step)


def _ray_rates(mus, dts, dbs, step):
    """(dmu_ds, domega_ds, richardson_error_estimate) from Omega . n,
    Omega . t and Omega . b at the probes s = -step, -step/2, 0, step/2,
    step: five floats each for one ray, or (5, N) arrays of one entry per
    ray.  PolarDirection where a ray runs along n at s = 0, and
    UnwrapFailure where its azimuth jumps between probes.  Array entries
    get the bits of floats: the arithmetic rounds alike on both, the
    unwrap and the error estimate make the same operations on arrays
    (_unwrapped, _richardson_error), and math.atan2 runs per entry."""
    if any_true(1.0 - mus[2] * mus[2] <= 1e-10):
        raise PolarDirection("ray parallel to n at the base point")
    if isinstance(dts, np.ndarray):
        oms = _unwrapped(dts, dbs)
    else:
        oms = [math.atan2(dbs[0], dts[0])]
        for k in range(1, 5):
            oms.append(_next_azimuth(oms[k - 1], dbs[k], dts[k]))
    dmu_h = (mus[4] - mus[0]) / (2.0 * step)
    dom_h = (oms[4] - oms[0]) / (2.0 * step)
    dmu_h2 = (mus[3] - mus[1]) / (2.0 * (step / 2.0))
    dom_h2 = (oms[3] - oms[1]) / (2.0 * (step / 2.0))
    return ((4.0 * dmu_h2 - dmu_h) / 3.0, (4.0 * dom_h2 - dom_h) / 3.0,
            _richardson_error(abs(dmu_h2 - dmu_h), abs(dom_h2 - dom_h)))


def _next_azimuth(prev: float, db: float, dt: float) -> float:
    """The azimuth atan2(db, dt) moved by whole turns next to that of
    the probe before, prev; UnwrapFailure where they stay more than
    pi/2 apart."""
    jump = math.atan2(db, dt) - prev
    if not math.isnan(jump):  # a NaN azimuth flows into domega_ds
        jump -= TWO_PI * round(jump / TWO_PI)
    if abs(jump) > math.pi / 2.0:
        raise _unwrap_failure(jump)
    return prev + jump


def _unwrap_failure(jump: float) -> UnwrapFailure:
    return UnwrapFailure(
        f"azimuth jump {jump:.3f} between probes; "
        "reduce the step or move off the polar direction")


def _unwrapped(dts, dbs) -> list:
    """The five unwrapped azimuths of the rays of a stack, from the
    (5, N) arrays of Omega . t and Omega . b at their probes:
    _next_azimuth's operations on arrays, probe by probe.  np.round
    rounds half to even, as round does, and a NaN jump is kept as it is;
    UnwrapFailure names the first jump beyond pi/2 at the first probe
    that has one."""
    azimuths = _each(math.atan2, dbs.ravel(), dts.ravel()).reshape(dbs.shape)
    oms = [azimuths[0]]
    for az in azimuths[1:]:
        jump = az - oms[-1]
        jump = np.where(np.isnan(jump), jump,
                        jump - TWO_PI * np.round(jump / TWO_PI))
        beyond = np.abs(jump) > math.pi / 2.0
        if beyond.any():
            raise _unwrap_failure(float(jump[np.argmax(beyond)]))
        oms.append(oms[-1] + jump)
    return oms


def _richardson_error(err_mu, err_om):
    """max(err_mu, err_om) / 3, NaN if either is NaN, on floats or
    arrays."""
    # NaN-keeping: Python's max drops a NaN that is not its first argument.
    if isinstance(err_mu, np.ndarray):
        return np.where(np.isnan(err_mu + err_om), math.nan,
                        np.fmax(err_mu, err_om)) / 3.0
    return (math.nan if math.isnan(err_mu + err_om)
            else max(err_mu, err_om)) / 3.0


def conservation_check(frame_field, sample_points, sample_angles,
                       cfg: DiffConfig = DEFAULT_CFG) -> ConservationReport:
    """Feasibility of a divergence rewriting of the streaming term.

    Feasible only when kappa^n vanishes and the leaf normal curvature
    C(r, omega) is azimuth-independent at every sample; the two known
    factor pairs are emitted for flat and spherical leaves.  Each entry
    of sample_angles is a (mu, omega) pair, in the domain of check_mu."""
    points = float_array(sample_points, "sample points")
    if points.ndim != 2 or points.shape[1] != 3:
        raise OutOfRange(f"sample points must be an (N, 3) array, not of "
                         f"shape {points.shape}")
    try:
        mus, omegas = list(zip(*sample_angles, strict=True)) or ((), ())
    except (TypeError, ValueError):  # an entry is no pair
        raise OutOfRange("sample angles must be (mu, omega) pairs") from None
    mu, _, c, sn = angle_arrays(mus, omegas)
    check_mu(mu)
    if len(points) < 8 or len(c) < 8:
        raise OutOfRange("need at least 8 spatial and 8 angular samples")
    return _conservation_report(frame_jet(frame_field, points, cfg), c, sn)


def _conservation_report(jet: FrameJet, c, sn) -> ConservationReport:
    """conservation_check from the stacked frame jet at the sample
    points and the cos and sin arrays of the sample azimuths."""
    k = frame_scalars(jet)
    # C at each angle (rows) and point (columns).
    cs = k.normal_curvature(c[:, None], sn[:, None])
    # NaN-keeping folds, and NaN lands on the infeasible side.
    max_kn = _worst(np.abs([k.kn_t, k.kn_b]))
    max_spread = _worst(np.ptp(cs, axis=0))
    max_c = _worst(np.abs(cs))
    samples = len(jet.n) * len(c)

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
    u, v = float_scalar(u, "u"), float_scalar(v, "v")

    def chart(a, b):
        return np.asarray(surface_parametrization(a, b), dtype=float)

    h1 = cfg.fd_step

    def first(du, dv):
        def central(h):
            return (chart(u + h * du, v + h * dv)
                    - chart(u - h * du, v - h * dv)) / (2.0 * h)
        d = central(h1)
        return (4.0 * central(h1 / 2.0) - d) / 3.0

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
    r = float_3vector(r, "point")

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


def _uniform_rows(rng, count, box) -> np.ndarray:
    """A (count, len(box)) array of uniform draws, one in each (low,
    high) range of ``box`` per row: one block of doubles from
    ``rng.random``, consumed in the order of a scalar
    ``rng.uniform(low, high)`` call per entry, row by row, and mapped
    by that call's arithmetic, low + (high - low) * double.  The entries
    have its bits as long as numpy's C code does not contract that
    arithmetic into a fused multiply-add, which holds for the x86-64
    wheels (test_random_states_match_scalar_draws checks it).  Raises
    OutOfRange for a count that is not a nonnegative integer."""
    rows = _nonnegative_int(count, "count")
    low, high = np.array(box).T
    return low + (high - low) * rng.random((rows, len(box)))


def _nonnegative_int(value, what: str) -> int:
    """value as an int; OutOfRange, naming it ``what``, unless it is a
    nonnegative integer."""
    try:
        number = operator.index(value)
    except TypeError:
        number = -1
    if number < 0:
        raise OutOfRange(f"{what} must be a nonnegative integer, not "
                         f"{value!r}")
    return number


def _draw_states(fid, count: int, rng) -> tuple:
    """The (N, 3) points and the (N,) mu and omega arrays of ``count``
    non-degenerate states in a frame's comfort zone: the draws of each
    state's point, then mu in (-0.9, 0.9) and omega in (0, 2 pi).  The
    registry row places every point in one call on the draws' columns,
    each entry with the bits of its placement on floats."""
    spec = frame_spec(fid)
    k = len(spec.box)
    rows = _uniform_rows(rng, count, spec.box + _ANGLE_BOX)
    points = np.column_stack(spec.place(fid)(*rows[:, :k].T))
    mu, omega = rows[:, k:].T.copy()
    return points, mu, omega


def random_states(fid, count: int, rng) -> list:
    """The states of _draw_states as a list of (r, mu, omega), r a row
    of the points and mu and omega Python floats."""
    points, mu, omega = _draw_states(fid, count, rng)
    return list(zip(points, mu.tolist(), omega.tolist()))


def _angle_grid(count: int, rng) -> list:
    """``count`` (mu, omega) pairs drawn as random_states draws them."""
    return list(map(tuple, _uniform_rows(rng, count, _ANGLE_BOX).tolist()))


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none, NaN if any is NaN (Python's
    max drops a NaN that is not its first argument)."""
    return float(np.max(residuals, initial=0.0))


class _Sampled(NamedTuple):
    """The row of a check over ``count`` random states of each frame
    (each homothetic frame when ``homothetic``), ``per_state`` samples
    each; run_checks draws its states and evaluates their frame jet.

    ``residuals(fid, field, points, omega, angles, jet, extra)`` returns
    an array of the residuals at one frame's states: ``points`` (N, 3),
    ``omega`` (N,), ``angles`` the (mu, s, c, sn) arrays of angle_arrays
    (None unless the row reads ``terms``) and ``jet`` the stacked frame
    jet at the points, followed by those of ``extra_points(points)``
    when that hook is set.  ``extra`` holds what ``draw(rng, count)``
    drew right after the frame's states, or None.  The check's worst
    residual is ``total`` of the residuals of all its frames.

    A ``terms`` row reads a_mu and a_omega at every row of the jet as
    well, which _evaluate passes as an eighth argument, ``terms``, from
    the pass's one assembly (_assembled_terms).  There each state's
    extra points follow one another and read its angles."""

    count: int
    per_state: int
    residuals: Callable
    homothetic: bool = False
    draw: Callable = None
    extra_points: Callable = None
    total: Callable = _worst
    terms: bool = False


def _draw(row: _Sampled, frames, rng) -> dict:
    """Frame name -> (points, omega, angles, extra) of a sampled row,
    drawn from rng frame by frame: each frame's states by _draw_states,
    then its extra draws, if the row makes any.  The angles of every
    frame's states are converted and checked at once, then split by
    frame.  A row that reads no terms draws the angles all the same, and
    gets None for them."""
    drawn, mus = {}, []
    for name, fid in frames.items():
        if row.homothetic and not frame_spec(fid).homothetic:
            continue
        points, mu, omega = _draw_states(fid, row.count, rng)
        extra = None if row.draw is None else row.draw(rng, row.count)
        drawn[name] = points, omega, None, extra
        mus.append(mu)
    if not row.terms or not drawn:
        return drawn
    angles = angle_arrays(np.concatenate(mus), np.concatenate(
        [omega for _, omega, _, _ in drawn.values()]))
    check_mu(angles[0])
    for name, part in zip(list(drawn), zip(*(np.split(a, len(drawn))
                                             for a in angles))):
        points, omega, _, extra = drawn[name]
        drawn[name] = points, omega, part, extra
    return drawn


def _jet_points(row: _Sampled, points):
    """The points at which a row reads the frame jet."""
    if row.extra_points is None:
        return points
    return np.concatenate([points, row.extra_points(points)])


def _rows(jet: FrameJet, rows) -> FrameJet:
    """The rows of a stacked jet that ``rows`` indexes: a slice, whose
    rows are views, or an array of row numbers."""
    return FrameJet(jet.n[rows], jet.t[rows], jet.b[rows], jet.jn[rows],
                    jet.jt[rows], jet.jb[rows])


_JET_FIELDS = [field.name for field in dataclasses.fields(FrameJet)]


class _Ask(NamedTuple):
    """A sampled row's draws on one frame, and the rows of the pass-wide
    jet that hold its jet points."""

    fid: object
    field: object
    name: str
    row: _Sampled
    states: tuple
    span: slice


def _pass_jet(drawn: dict, frames, cfg) -> tuple:
    """The pass-wide stacked jet of the sampled rows in ``drawn``, the
    _Ask of each row on each frame, frame by frame and in row order
    within a frame, and the slice of the jet's rows that the terms rows
    hold.  Each frame makes one stacked frame jet at the jet points of
    all its rows, in frame order, and is dropped once copied into the
    pass-wide jet.  That holds the rows of every terms ask first, then
    those of every other ask, each in ask order, so the terms rows, and
    an ask's, are one slice."""
    plan = []
    for frame, fid in frames.items():
        own = [(name, row, states[frame], _jet_points(row, states[frame][0]))
               for name, (row, states) in drawn.items() if frame in states]
        if own:
            plan.append((fid, own))
    split = sum(len(block) for _, own in plan
                for _, row, _, block in own if row.terms)
    stop = sum(len(block) for _, own in plan for *_, block in own)
    heads = {True: 0, False: split}
    jet = FrameJet(*(np.empty((stop, 3)) for _ in range(3)),
                   *(np.empty((stop, 3, 3)) for _ in range(3)))
    asks = []
    for fid, own in plan:
        field = builtin_frame(fid)
        whole = frame_jet(field, np.concatenate([b for *_, b in own]), cfg)
        start = 0
        for name, row, states, block in own:
            span = slice(heads[row.terms], heads[row.terms] + len(block))
            for f in _JET_FIELDS:
                getattr(jet, f)[span] = getattr(whole, f)[
                    start:start + len(block)]
            heads[row.terms], start = span.stop, start + len(block)
            asks.append(_Ask(fid, field, name, row, states, span))
        del whole
    return jet, asks, slice(0, split)


def _assembled_terms(asks, jet: FrameJet, rows: slice):
    """An iterator over (a_mu, a_omega) at the jet rows of each ask whose
    row reads terms, in ask order, from one checked_terms call on the
    jet rows of them all, ``rows``: each entry has the bits of its own
    row's calls.  Each state's extra points follow one another and read
    its angles.  Its errors are those of checked_terms: the frame check
    of every row first, then the breakdown check, each naming its first
    failing row in ask order."""
    sizes, columns = [], []
    for ask in asks:
        if ask.row.terms:
            points, _, angles, _ = ask.states
            sizes.append(ask.span.stop - ask.span.start)
            extras = sizes[-1] // len(points) - 1
            columns.append([np.concatenate([a, np.repeat(a, extras)])
                            for a in angles])
    if not sizes:
        return iter(())
    a_mu, a_omega = checked_terms(_rows(jet, rows),
                                  *map(np.concatenate, zip(*columns)))[:2]
    bounds = np.cumsum(sizes)[:-1]
    return zip(np.split(a_mu, bounds), np.split(a_omega, bounds))


def _evaluate(drawn: dict, frames, cfg) -> dict:
    """Check name -> (worst residual, samples) of the sampled rows in
    ``drawn`` (name -> (row, its draws by _draw)).  The rows read one
    pass-wide jet (_pass_jet), and those that read a_mu and a_omega
    take them from one assembly over the whole pass (_assembled_terms).
    Every entry of a stacked jet, and of a stacked assembly, has the
    bits of the single state, so a row's residuals do not depend on the
    rows beside it.  The jets raise first, frame by frame, the error of
    their first failing point; then the assembly that of its first
    failing state, by stage (frame check, then breakdown); then the
    residuals of each frame's rows, frame by frame in row order."""
    jet, asks, terms_rows = _pass_jet(drawn, frames, cfg)
    terms = _assembled_terms(asks, jet, terms_rows)
    found = {name: [np.zeros(0)] for name in drawn}
    for fid, field, name, row, (points, omega, angles, extra), span in asks:
        found[name].append(row.residuals(
            fid, field, points, omega, angles, _rows(jet, span), extra,
            *((next(terms),) if row.terms else ())))
    out = {}
    for name, (row, states) in drawn.items():
        count = sum(len(points) for points, *_ in states.values())
        out[name] = (row.total(np.concatenate(found[name])),
                     row.per_state * count)
    return out


def _catalog_residuals(fid, field, points, omega, angles, jet, extra,
                       terms):
    a_mu, a_omega = terms
    cat_mu, cat_om = catalog_coefficients(fid, points, angles[0], omega)
    return np.abs(np.concatenate([a_mu - cat_mu, a_omega - cat_om]))


def _oracle_residuals(fid, field, points, omega, angles, jet, extra,
                      terms):
    a_mu, a_omega = terms
    oracle = ray_oracle(field, points, _direction(jet, *angles))
    return np.abs(np.concatenate([a_mu - oracle.dmu_ds,
                                  a_omega - oracle.domega_ds]))


def _normal_rows(rng, count):
    """``count`` rows of three standard normal draws."""
    return rng.normal(size=(count, 3))


def _identity_residuals(fid, field, points, omega, angles, jet, h):
    """|u . grad_h u| and |u . grad_h v + v . grad_h u| for the frame
    vectors u, v along a unit h, one h per state: the rows of h,
    normalized."""
    h = h / np.sqrt(_dot(h, h))[:, None]
    vecs = (jet.n, jet.t, jet.b)
    rates = [_matvec(jac, h) for jac in (jet.jn, jet.jt, jet.jb)]
    out = []
    for a in range(3):
        out.append(_dot(vecs[a], rates[a]))
        for b in range(a + 1, 3):
            out.append(_dot(vecs[a], rates[b]) + _dot(vecs[b], rates[a]))
    return np.abs(np.concatenate(out))


_SCALES = (0.5, 2.0, 10.0)


def _scaled_points(points):
    """Each point at each of _SCALES in turn, (3N, 3)."""
    return np.tile(_SCALES, len(points))[:, None] * np.repeat(
        points, len(_SCALES), axis=0)


def _homothety_residuals(fid, field, points, omega, angles, jet, extra,
                         terms):
    """Relative misfit of a(scale r) = a(r) / scale at three scales;
    terms hold a_mu and a_omega at the N points, then at their
    _scaled_points.

    The misfit is relative to |a(r)|, floored at the coefficient scale
    1/|r| that homothety fixes: where a(r) nearly vanishes, a fixed
    floor would read the fd engine's absolute error as a large relative
    one."""
    count = len(points)
    (a_mu, s_mu), (a_omega, s_omega) = (np.split(a, [count]) for a in terms)
    scales = np.tile(_SCALES, count)
    lead = np.repeat([a_mu, a_omega], len(_SCALES), axis=1)
    trail = np.array([s_mu, s_omega])
    floor = np.repeat(1.0 / np.linalg.norm(points, axis=1), len(_SCALES))
    return (np.abs(scales * trail - lead)
            / np.maximum(np.abs(lead), floor)).ravel()


# The random points and angles of conservation_check on one frame.
_CONSERVATION_POINTS, _CONSERVATION_ANGLES = 64, 16


def sampled_conservation(fid, rng,
                         cfg: DiffConfig = DEFAULT_CFG) -> ConservationReport:
    """conservation_check of the frame ``fid`` names at 64 of its random
    points and 16 random angles, drawn from rng in that order."""
    points = _draw_states(fid, _CONSERVATION_POINTS, rng)[0]
    return conservation_check(builtin_frame(fid), points,
                              _angle_grid(_CONSERVATION_ANGLES, rng), cfg)


def _angle_rows(rng, count):
    """The (mu, omega) pairs that _angle_grid draws for conservation, as
    the rows of an array, whatever the row's count of states."""
    return _uniform_rows(rng, _CONSERVATION_ANGLES, _ANGLE_BOX)


def _conservation_residuals(fid, field, points, omega, angles, jet, grid):
    """1.0 where the conservation verdict at the points and at the
    (mu, omega) rows of grid is not the one that the frame's registry
    row expects, else 0.0."""
    report = _conservation_report(jet, *angle_arrays(*grid.T)[2:])
    return np.array([float((report.feasible, report.reason)
                           != frame_spec(fid).conservation)])


def _latitude_loop(theta: float, steps: int):
    """The unit-sphere latitude loop at polar angle theta, run
    counterclockwise about the z axis, a start vector tangent to it, and
    its holonomy 2 pi (1 - cos theta): the area of the cap north of it,
    on its left, on either side of the equator."""
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


def _check_holonomy(frames, rng, cfg, theta):
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


# name -> (tolerance, report only, runner), in run order.  A sampled row
# is a _Sampled; any other runner takes (frames, rng, cfg, theta) and
# returns (worst residual, samples).
_CHECKS = {
    "catalog-agreement": (1e-7, False, _Sampled(
        60, 1, _catalog_residuals, terms=True)),
    "oracle-agreement": (1e-6, False, _Sampled(
        40, 1, _oracle_residuals, terms=True)),
    "frame-identities": (1e-8, False, _Sampled(40, 1, _identity_residuals,
                                               draw=_normal_rows)),
    "homothety": (1e-8, False, _Sampled(20, 3, _homothety_residuals,
                                        homothetic=True,
                                        extra_points=_scaled_points,
                                        terms=True)),
    "conservation-trichotomy": (0.0, False, _Sampled(
        _CONSERVATION_POINTS, _CONSERVATION_ANGLES, _conservation_residuals,
        draw=_angle_rows, total=np.sum)),
    "holonomy-convergence": (1e-3, False, _check_holonomy),
    "kb-transform-residual": (
        0.0, True, lambda frames, rng, cfg, theta: _check_kb_transform(cfg)),
}


def _check_name_filter(value, what: str):
    """OutOfRange, naming the filter ``what``, unless value is None or a
    string."""
    if value is not None and not isinstance(value, str):
        raise OutOfRange(f"{what} must be a string or None, not {value!r}")


def selected_checks(check_filter: str = None) -> list:
    """Names of the checks whose name contains ``check_filter``, in run
    order; all of them when it is None.  Raises OutOfRange when none
    matches, or when check_filter is neither None nor a string."""
    _check_name_filter(check_filter, "check_filter")
    names = [name for name in _CHECKS
             if check_filter is None or check_filter in name]
    if not names:
        raise OutOfRange(f"unknown check {check_filter!r}; checks are "
                         + ", ".join(_CHECKS))
    return names


def run_checks(frame_filter: str = None, check_filter: str = None,
               seed: int = 0, cfg: DiffConfig = DEFAULT_CFG,
               holonomy_theta: float = math.pi / 3.0) -> list:
    """Run the verification suite; returns a list of CheckResult.

    Every selected row first takes its draws from the one generator
    that ``seed`` starts, in run order: a sampled row draws each frame's
    states and extra draws, and any other runner runs at its turn.  Then
    each frame makes one stacked frame jet for all the sampled rows
    (_evaluate).  Raises OutOfRange for a filter that is neither None nor
    a string, a seed that is not a nonnegative integer, or a
    holonomy_theta that is not a number."""
    _check_name_filter(frame_filter, "frame_filter")
    frames = default_frames()
    if frame_filter is not None:
        if frame_filter not in frames:
            raise OutOfRange(f"unknown frame {frame_filter!r}")
        frames = {frame_filter: frames[frame_filter]}
    wanted = selected_checks(check_filter)
    rng = np.random.default_rng(_nonnegative_int(seed, "seed"))
    holonomy_theta = float_scalar(holonomy_theta, "holonomy_theta")
    found, drawn = {}, {}
    for name in wanted:
        runner = _CHECKS[name][2]
        if isinstance(runner, _Sampled):
            drawn[name] = runner, _draw(runner, frames, rng)
        else:
            found[name] = runner(frames, rng, cfg, holonomy_theta)
    found.update(_evaluate(drawn, frames, cfg))
    results = []
    for name in wanted:
        tol, report_only, _ = _CHECKS[name]
        worst, samples = found[name]
        status = ("report-only" if report_only
                  else "pass" if worst <= tol else "fail")
        results.append(CheckResult(name=name, status=status,
                                   max_residual=float(worst),
                                   tolerance=tol, samples=samples))
    return results
