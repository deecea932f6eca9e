"""Coefficients of d/dmu and d/domega in the frame-adapted streaming
term, in every derivable form, plus the assembled directional
derivative Omega . grad Psi."""
from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .derivatives import (DEFAULT_CFG, DiffConfig, FrameJet, FrameScalars,
                          _direction, _dot, _matvec, frame_jet,
                          frame_scalars, twist)
from .errors import (FoliationMissing, InconsistentBreakdown,
                     InconsistentDirection, OutOfRange, PolarDirection)
from .frames import (_POLAR_TOL, FramePoint, _each, all_true,
                     check_mu_range, direction_from_angles, float_angles,
                     float_array, float_vector, loose_frames_ok)

_BREAKDOWN_RTOL = 1e-10
_FOLIATION_TOL = 1e-6


class MuForm(enum.Enum):
    CURVE_CURVATURE = "curve-curvature"
    SURFACE_CURVATURE = "surface-curvature"


class OmegaForm(enum.Enum):
    DIRECT_TB = "direct-tb"
    DIRECT_BT = "direct-bt"
    CURVE_CURVATURE = "curve-curvature"
    SURFACE_B = "surface-b"
    SURFACE_T = "surface-t"


@dataclasses.dataclass(frozen=True)
class StreamingCoefficients:
    """a_mu and a_omega with their named contributions.

    breakdown keys: mu_surface, mu_curve_n, omega_curve, omega_wind,
    omega_tilt.  The tilt entry is the azimuth drift produced by the
    mu-level change along the ray; without it the assembled
    Omega . grad Psi fails the linear-function identity.
    """

    a_mu: float
    a_omega: float
    breakdown: dict
    at: tuple
    frame: FramePoint

    def __post_init__(self):
        bd = self.breakdown
        check_breakdown(self.a_mu, self.a_omega, bd["mu_surface"],
                        bd["mu_curve_n"], bd["omega_curve"],
                        bd["omega_wind"], bd["omega_tilt"])


def check_breakdown(a_mu, a_omega, mu_surface, mu_curve_n, omega_curve,
                    omega_wind, omega_tilt) -> None:
    """Raise InconsistentBreakdown unless each coefficient equals the sum
    of its contributions, for floats or equal-length arrays.  The
    residual is taken relative to 1 + the size of the parts: near a
    singular axis the parts reach 1e8, where rounding alone exceeds any
    fixed absolute bound.  Each test asks that every relative residual
    be within _BREAKDOWN_RTOL, so a NaN fails, and so does an infinite
    coefficient or part."""
    mu_size = 1.0 + abs(mu_surface) + abs(mu_curve_n)
    if not all_true(abs(a_mu - mu_surface - mu_curve_n) / mu_size
                    <= _BREAKDOWN_RTOL):
        raise InconsistentBreakdown("a_mu breakdown inconsistent")
    omega_size = 1.0 + abs(omega_curve) + abs(omega_wind) + abs(omega_tilt)
    if not all_true(abs(a_omega - omega_curve - omega_wind - omega_tilt)
                    / omega_size <= _BREAKDOWN_RTOL):
        raise InconsistentBreakdown("a_omega breakdown inconsistent")


def _angles(mu, omega):
    """(mu, s, c, sn) of one direction, as coefficient_terms takes them;
    OutOfRange, from float_angles, for a non-number or non-finite omega."""
    mu, omega = float_angles(mu, omega)
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    return mu, s, math.cos(omega), math.sin(omega)


def angle_arrays(mus, omegas):
    """Arrays (mu, s, c, sn) for paired lists of mu and omega, each entry
    with the bits of _angles at that state.  Columns of finite numbers
    convert as arrays; any other input is replayed state by state, so
    that the first bad entry raises its own OutOfRange."""
    try:
        mu, omega = float_array(mus, "mu"), float_array(omegas, "omega")
        as_arrays = (mu.ndim == 1 and mu.shape == omega.shape
                     and np.isfinite(mu).all() and np.isfinite(omega).all())
    except OutOfRange:
        as_arrays = False
    if not as_arrays:
        rows = [_angles(mu, omega) for mu, omega in zip(mus, omegas)]
        return tuple(np.array(column, dtype=float) for column in zip(*rows))
    # A huge mu overflows to inf without a flag, as a float does.
    with np.errstate(over="ignore"):
        s = np.sqrt(np.fmax(0.0, 1.0 - mu * mu))
    return mu.copy(), s, _each(math.cos, omega), _each(math.sin, omega)


def check_mu(mu) -> None:
    """Raise OutOfRange for mu outside [-1, 1] and PolarDirection for mu
    at +-1, where omega is undefined.  For an array the entry of largest
    magnitude (or the first NaN) decides."""
    if isinstance(mu, np.ndarray):
        mu = float(mu[np.argmax(np.abs(mu))])
    check_mu_range(mu)
    if 1.0 - mu * mu < _POLAR_TOL:
        raise PolarDirection("omega undefined for mu at +-1")


def _mu_terms(k: FrameScalars, mu, s, c, sn):
    """(mu_surface, mu_curve_n): a_mu from the shape operator of n and
    from kappa^n.  Each kn is negated on its own, not their sum, so a
    zero sum keeps the sign that t . grad_n n and b . grad_n n give."""
    return ((1.0 - mu * mu) * k.normal_curvature(c, sn),
            mu * s * (c * -k.kn_t + sn * -k.kn_b))


def _omega_terms(k: FrameScalars, mu, s, c, sn):
    """(omega_curve, omega_wind): a_omega from kappa^t, kappa^b and the
    winding of (t, b) about n."""
    return s * (c * k.kt_b - sn * k.kb_t), mu * k.winding


# The frame vector whose leaves each shape-operator route reads; the
# route assumes that the planes normal to that vector integrate.
_LEAF = {MuForm.SURFACE_CURVATURE: "n", OmegaForm.SURFACE_B: "b",
         OmegaForm.SURFACE_T: "t"}


def leaf_defect(jet: FrameJet, form):
    """V . curl V for the frame vector V whose leaves ``form`` reads, one
    point or stacked; zero for a form that reads no leaf."""
    if form not in _LEAF:
        return np.zeros(jet.n.shape[:-1])
    leaf = _LEAF[form]
    return twist(getattr(jet, leaf), getattr(jet, "j" + leaf))


def has_leaf(jet: FrameJet, form):
    """Whether ``form``'s leaf exists: a defect within _FOLIATION_TOL, or
    NaN, so that the route's NaN is not dropped."""
    return ~(np.abs(leaf_defect(jet, form)) > _FOLIATION_TOL)


def _on_leaf(jet: FrameJet, form, value):
    """value where ``form``'s leaf exists; else FoliationMissing."""
    if not has_leaf(jet, form):
        raise FoliationMissing(f"{_LEAF[form]}-foliation defect "
                               f"{leaf_defect(jet, form):.3e} exceeds "
                               f"{_FOLIATION_TOL}")
    return value


def grad_mu(frame_field, r, mu, omega, form: MuForm = MuForm.CURVE_CURVATURE,
            cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of mu = Omega . n along a straight ray."""
    angles = _angles(mu, omega)
    check_mu_range(angles[0])
    jet = frame_jet(frame_field, r, cfg)
    return _on_leaf(jet, form, grad_mu_from_jet(jet, *angles, form))


def grad_mu_from_jet(jet: FrameJet, mu, s, c, sn, form: MuForm):
    """grad_mu from a precomputed frame jet, one point or stacked, and
    the angles that coefficient_terms takes; no leaf test."""
    n, t, b = jet.n, jet.t, jet.b
    if form is MuForm.SURFACE_CURVATURE:
        surface, curve_n = _mu_terms(frame_scalars(jet), mu, s, c, sn)
        return surface + curve_n
    if form is not MuForm.CURVE_CURVATURE:
        raise OutOfRange(f"unknown mu form {form!r}")
    # The route that form-equivalence compares against the shape
    # operator: the n-components of kappa^t and kappa^b.
    n_kt = -_dot(n, _matvec(jet.jt, t))
    n_kb = -_dot(n, _matvec(jet.jb, b))
    cross = _dot(n, _matvec(jet.jt, b)) + _dot(n, _matvec(jet.jb, t))
    quad = c * c * n_kt + sn * sn * n_kb - sn * c * cross
    dn_n = _matvec(jet.jn, n)
    along_n = c * _dot(t, dn_n) + sn * _dot(b, dn_n)
    return (1.0 - mu * mu) * quad + mu * s * along_n


def grad_omega(frame_field, r, mu, omega,
               form: OmegaForm = OmegaForm.DIRECT_TB,
               cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of the azimuth's defining projection, t . grad_Omega b.

    All forms evaluate the same quantity through different derivative
    routes; the surface routes raise FoliationMissing where their leaf
    is missing.  Only CURVE_CURVATURE goes through frame_scalars, which
    the others therefore check."""
    angles = _angles(mu, omega)
    check_mu(angles[0])
    jet = frame_jet(frame_field, r, cfg)
    return _on_leaf(jet, form, grad_omega_from_jet(jet, *angles, form))


def grad_omega_from_jet(jet: FrameJet, mu, s, c, sn, form: OmegaForm):
    """grad_omega from a precomputed frame jet, one point or stacked, and
    the angles that coefficient_terms takes; no leaf test."""
    n, t, b = jet.n, jet.t, jet.b
    if form is OmegaForm.DIRECT_TB:
        return _dot(t, _matvec(jet.jb, _direction(jet, mu, s, c, sn)))
    if form is OmegaForm.DIRECT_BT:
        return -_dot(b, _matvec(jet.jt, _direction(jet, mu, s, c, sn)))
    if form is OmegaForm.CURVE_CURVATURE:
        curve, wind = _omega_terms(frame_scalars(jet), mu, s, c, sn)
        return curve + wind
    if form is OmegaForm.SURFACE_B:
        return (s * c * _dot(t, _matvec(jet.jb, t))
                + mu * _dot(t, _matvec(jet.jb, n))
                + s * sn * _dot(t, _matvec(jet.jb, b)))
    if form is OmegaForm.SURFACE_T:
        return (-s * c * _dot(b, _matvec(jet.jt, t))
                - mu * _dot(b, _matvec(jet.jt, n))
                - s * sn * _dot(b, _matvec(jet.jt, b)))
    raise OutOfRange(f"unknown omega form {form!r}")


def coefficient_terms(jet: FrameJet, mu, s, c, sn):
    """The coefficients and their contributions from a frame jet:
    (a_mu, a_omega, mu_surface, mu_curve_n, omega_curve, omega_wind,
    omega_tilt).

    mu, s = sqrt(1 - mu^2), c = cos(omega) and sn = sin(omega) are
    Python floats, or equal-length arrays holding many directions at
    the jet's point.  With a stacked jet of N points they are (N,)
    arrays, one state per point, or a grid of (N, K) or (1, K) arrays,
    K directions at each point: the scalars are computed once per point
    and broadcast over its directions, and the terms are (N, K).  Each
    state gets the same bits either way.  The catalog assembles the
    same quantities from its own hand-derived scalars, and the ray
    oracle checks both without any jet.
    """
    k = frame_scalars(jet)
    if isinstance(mu, np.ndarray) and mu.ndim == 2:
        # An axis for the directions on the jet and the scalars: views
        # of (N, 1, ...) that repeat nothing per direction.
        jet = FrameJet(*(getattr(jet, f.name)[:, None]
                         for f in dataclasses.fields(jet)))
        k = FrameScalars(*(x[:, None] for x in k))
    mu_surface, mu_curve_n = _mu_terms(k, mu, s, c, sn)
    omega_curve, omega_wind = _omega_terms(k, mu, s, c, sn)
    dn_along = _matvec(jet.jn, _direction(jet, mu, s, c, sn))
    omega_tilt = -mu * (-sn * _dot(jet.t, dn_along)
                        + c * _dot(jet.b, dn_along)) / s
    return (mu_surface + mu_curve_n, omega_curve + omega_wind + omega_tilt,
            mu_surface, mu_curve_n, omega_curve, omega_wind, omega_tilt)


def checked_terms(jet: FrameJet, mu, s, c, sn):
    """coefficient_terms with the checks that coefficients_from_jet
    makes: the frame passes FramePoint.loose, then each coefficient
    equals the sum of its parts.

    The jet is one point, with any number of directions, or a stack
    with one state per point or a grid of directions per point, as
    coefficient_terms takes them.  A stack runs each check on all states
    at once, the frame check first; when one fails, its points are
    replayed one by one, which raises the error of the first failing
    point.
    """
    if jet.n.ndim == 1:
        FramePoint.loose(jet.n, jet.t, jet.b)
        terms = coefficient_terms(jet, mu, s, c, sn)
        check_breakdown(*terms)
        return terms
    if not loose_frames_ok(jet.n, jet.t, jet.b):
        for i in range(len(jet.n)):
            FramePoint.loose(jet.n[i], jet.t[i], jet.b[i])
    terms = coefficient_terms(jet, mu, s, c, sn)
    try:
        check_breakdown(*terms)
    except InconsistentBreakdown:
        for i in range(len(jet.n)):
            check_breakdown(*(term[i] for term in terms))
        raise
    return terms


def coefficients_from_jet(jet: FrameJet, mu: float, omega: float,
                          at_point=None) -> StreamingCoefficients:
    """Assemble both coefficients from a precomputed frame jet."""
    mu, s, c, sn = _angles(mu, omega)
    check_mu(mu)
    at_point = (np.zeros(3) if at_point is None
                else float_array(at_point, "point").copy())
    (a_mu, a_omega, mu_surface, mu_curve_n, omega_curve, omega_wind,
     omega_tilt) = coefficient_terms(jet, mu, s, c, sn)
    breakdown = {"mu_surface": mu_surface, "mu_curve_n": mu_curve_n,
                 "omega_curve": omega_curve, "omega_wind": omega_wind,
                 "omega_tilt": omega_tilt}
    return StreamingCoefficients(
        a_mu=a_mu, a_omega=a_omega, breakdown=breakdown,
        at=(at_point, mu, float(omega)),
        frame=FramePoint.loose(jet.n, jet.t, jet.b))


def streaming_coefficients(frame_field, r, mu, omega,
                           cfg: DiffConfig = DEFAULT_CFG
                           ) -> StreamingCoefficients:
    """Both streaming coefficients and their breakdown at one state."""
    r = float_array(r, "point")
    jet = frame_jet(frame_field, r, cfg)
    return coefficients_from_jet(jet, mu, omega, at_point=r)


def apply_streaming(coeffs: StreamingCoefficients, omega_dir,
                    spatial_grad_psi, dpsi_dmu: float,
                    dpsi_domega: float) -> float:
    """Assembled Omega . grad Psi from precomputed pieces.

    OutOfRange where omega_dir is not a 3-vector, InconsistentDirection
    where it does not reconstruct from (mu, omega, frame) within 1e-10
    (a NaN entry included), and OutOfRange where spatial_grad_psi is not
    a finite 3-vector."""
    d = float_array(omega_dir, "direction")
    if d.shape != (3,):
        raise OutOfRange("direction must be a 3-vector")
    _, mu, omega = coeffs.at
    rebuilt = direction_from_angles(coeffs.frame, mu, omega)
    if not float(np.max(np.abs(d - rebuilt))) <= 1e-10:
        raise InconsistentDirection(
            "direction does not match the coefficient state")
    grad = float_vector(spatial_grad_psi, "spatial gradient")
    return float(d @ grad + coeffs.a_mu * dpsi_dmu
                 + coeffs.a_omega * dpsi_domega)
