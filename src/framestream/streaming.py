"""Coefficients of d/dmu and d/domega in the frame-adapted streaming
term, in every derivable form, plus the assembled directional
derivative Omega . grad Psi.

The term algebra is written once (_terms), over floats or arrays.  One
state runs it on Python floats, in the operation order of a stack, and
enters numpy only for the contractions, so one state and a stack give
the same bits.  One state is assembled from the flat parts of its
point, the nine frame components and their (9, 3) Jacobian, with no
frame jet (_state_coefficients): Omega joins (n, t, b) as a fourth row
in the two numpy calls of derivatives._contractions, which give
t . (jn @ Omega) and b . (jn @ Omega) beside the nine scalars.  A stack
makes jn @ Omega and its two dots in calls of their own
(coefficient_terms).  The angles and their domain come from the
direction chart in frames."""
from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .derivatives import (DEFAULT_CFG, DiffConfig, FrameJet, FrameScalars,
                          _combine, _contractions, _direction, _dot,
                          _matvec, _point_parts, _scalars, frame_jet,
                          frame_scalars, twist)
from .errors import (FoliationMissing, InconsistentBreakdown,
                     InconsistentDirection, OutOfRange)
from .frames import (FramePoint, _angles, _one_frame, all_true, angle_arrays,
                     check_mu, check_mu_range, direction_from_angles,
                     float_3vector, float_array, float_scalar, float_vector,
                     instance_of, on_stack)

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
    Omega . grad Psi fails the linear-function identity.  at is the
    state (point, mu, omega).  For a stack of N states every field
    holds one entry per state: (N,) arrays, an (N, 3) point array, and
    a frame of (N, 3) vectors.
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


def _on_leaf(jet: FrameJet, form, value):
    """value where ``form``'s leaf exists at the jet's one point (a leaf
    defect within _FOLIATION_TOL, or NaN, so that the route's NaN is not
    dropped) or where the form reads no leaf; else FoliationMissing."""
    if form in _LEAF:
        defect = leaf_defect(jet, form)
        if abs(defect) > _FOLIATION_TOL:
            raise FoliationMissing(f"{_LEAF[form]}-foliation defect "
                                   f"{defect:.3e} exceeds {_FOLIATION_TOL}")
    return value


def grad_mu(frame_field, r, mu, omega, form: MuForm = MuForm.CURVE_CURVATURE,
            cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of mu = Omega . n along a straight ray."""
    angles = _angles(mu, omega)
    check_mu_range(angles[0])
    jet = frame_jet(frame_field, float_3vector(r, "point"), cfg)
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
    # The route through the n-components of kappa^t and kappa^b, in
    # place of the shape operator of n.
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
    jet = frame_jet(frame_field, float_3vector(r, "point"), cfg)
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
    dn_along = _matvec(jet.jn, _direction(jet, mu, s, c, sn))
    return _terms(k, _dot(jet.t, dn_along), _dot(jet.b, dn_along),
                  mu, s, c, sn)


def _terms(k: FrameScalars, t_dn, b_dn, mu, s, c, sn):
    """coefficient_terms' seven values from the nine scalars k and
    t . (jn @ Omega), b . (jn @ Omega)."""
    mu_surface, mu_curve_n = _mu_terms(k, mu, s, c, sn)
    omega_curve, omega_wind = _omega_terms(k, mu, s, c, sn)
    omega_tilt = -mu * (-sn * t_dn + c * b_dn) / s
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
    point.  OutOfRange where the jet is not a FrameJet.
    """
    FramePoint.loose(instance_of(jet, FrameJet, "jet").n, jet.t, jet.b)
    # An inf in a jet meets an inf of the other sign, or a zero, where a
    # float state would too: the NaN it gives fails the check, which
    # raises its typed error, not numpy's warnings.  The replay of a
    # stack runs on numpy scalars, which warn as arrays do.
    with np.errstate(invalid="ignore", over="ignore"):
        terms = coefficient_terms(jet, mu, s, c, sn)
        try:
            check_breakdown(*terms)
        except InconsistentBreakdown:
            if jet.n.ndim == 2:  # a stack: its first failing point raises
                for i in range(len(jet.n)):
                    check_breakdown(*(term[i] for term in terms))
            raise
    return terms


def _coefficients(terms, at, n, t, b) -> StreamingCoefficients:
    """The result of coefficient_terms' seven values at the state ``at``:
    the frame (n, t, b) passes FramePoint.loose, then the breakdown."""
    return StreamingCoefficients(terms[0], terms[1], dict(zip((
        "mu_surface", "mu_curve_n", "omega_curve", "omega_wind",
        "omega_tilt"), terms[2:])), at, FramePoint.loose(n, t, b))


def _on_states(jet_at, one_state, points, mu, omega, *inputs):
    """The result at the stacked states (points, mu, omega) from the
    stacked jet_at(), through on_stack: its replay runs one_state, the
    single-state call, on each row of (points, *inputs, mu, omega), so
    the first failing state raises its own error.  OutOfRange unless mu
    and omega hold one angle per point."""
    try:
        paired = len(mu) == len(omega) == len(points)
    except TypeError:  # no length: a number, say
        paired = False
    if not paired:
        raise OutOfRange(f"mu and omega must be lists of one angle for "
                         f"each of the {len(points)} states")

    def attempt():
        jet, angles = jet_at(), angle_arrays(mu, omega)
        check_mu(angles[0])
        return _coefficients(coefficient_terms(jet, *angles), (
            points.copy(), angles[0], np.array(omega, float)),
            jet.n, jet.t, jet.b)

    def fields(*row):
        c = one_state(*row)
        return (c.a_mu, c.a_omega, *c.breakdown.values(), *c.at,
                c.frame.n, c.frame.t, c.frame.b)

    out = on_stack(attempt, fields, points, *inputs, mu, omega)
    if isinstance(out, StreamingCoefficients):
        return out
    return _coefficients(out[:7], out[7:10], *out[10:])


def _state_coefficients(vals, jacs, at, mu, omega) -> StreamingCoefficients:
    """The result at one state (at, mu, omega) from the flat parts of its
    point: the nine frame components (n, t, b), a (9,) array, and their
    C-contiguous (9, 3) Jacobian.  The angles are checked first, then
    at.  Omega is formed on the floats of one tolist, in the operation
    order of a stack, and joins (n, t, b) in _contractions' two numpy
    calls: t . (jn @ Omega) and b . (jn @ Omega) come out beside the
    nine scalars, each item with the bits of its own matvec and dot, so
    one state has the bits of coefficient_terms."""
    mu, s, c, sn = _angles(mu, omega)
    check_mu(mu)
    at = float_3vector(at, "point").copy()
    x = vals.tolist()
    along = [_combine(mu, s, c, sn, *v) for v in zip(x[0:3], x[3:6], x[6:9])]
    cn, ct, cb = _contractions(np.concatenate([vals, along]).reshape(4, 3),
                               jacs.reshape(3, 3, 3))
    return _coefficients(
        _terms(_scalars(cn, ct, cb), cn[3][1], cn[3][2], mu, s, c, sn),
        (at, mu, float(omega)), vals[0:3], vals[3:6], vals[6:9])


# The shape of each FrameJet field at one point.
_JET_SHAPES = {"n": (3,), "t": (3,), "b": (3,), "jn": (3, 3), "jt": (3, 3),
               "jb": (3, 3)}


def _checked_jet(jet) -> FrameJet:
    """jet with float array fields, all of one point, (3,) vectors and
    (3, 3) Jacobians, or all of N stacked points, (N, 3) and (N, 3, 3);
    OutOfRange, naming the field, for any other, and for a jet that is
    not a FrameJet."""
    instance_of(jet, FrameJet, "jet")
    fields = {name: float_array(getattr(jet, name), f"jet.{name}")
              for name in _JET_SHAPES}
    lead = fields["n"].shape[:-1][:1]
    for name, x in fields.items():
        if x.shape != lead + _JET_SHAPES[name]:
            raise OutOfRange(f"jet.{name} must be of shape "
                             f"{lead + _JET_SHAPES[name]}, not {x.shape}")
    return FrameJet(**fields)


def coefficients_from_jet(jet: FrameJet, mu, omega,
                          at_point=None) -> StreamingCoefficients:
    """Assemble both coefficients from a precomputed frame jet of one
    point, with float mu and omega; or of N stacked points, with N mu
    and N omega values and an (N, 3) at_point, by _on_states' rule.
    OutOfRange for a jet that is not a FrameJet or has a field of
    another shape (see _checked_jet), or for an at_point of another
    shape than the jet's points."""
    jet = _checked_jet(jet)
    if jet.n.ndim != 1:
        points = float_array(np.zeros(jet.n.shape) if at_point is None
                             else at_point, "point")
        if points.shape != jet.n.shape:
            raise OutOfRange(f"point must be of shape {jet.n.shape}, not "
                             f"{points.shape}")
        return _on_states(
            lambda: jet, lambda p, *row: coefficients_from_jet(
                FrameJet(*row[:6]), *row[6:], at_point=p),
            points, mu, omega, jet.n, jet.t, jet.b, jet.jn, jet.jt, jet.jb)
    return _state_coefficients(
        np.concatenate([jet.n, jet.t, jet.b]),
        np.concatenate([jet.jn, jet.jt, jet.jb]),
        np.zeros(3) if at_point is None else at_point, mu, omega)


def streaming_coefficients(frame_field, r, mu, omega,
                           cfg: DiffConfig = DEFAULT_CFG
                           ) -> StreamingCoefficients:
    """Both streaming coefficients and their breakdown at one state, or
    at each state of a stack: an (N, 3) array r with N mu and N omega
    values, by the stack rule of _on_states.  One state is assembled
    from its point's flat parts (_state_coefficients), with no jet."""
    r = float_array(r, "point")
    if r.ndim == 2 and r.shape[1] == 3:
        return _on_states(lambda: frame_jet(frame_field, r, cfg),
                          lambda p, m, o: streaming_coefficients(
                              frame_field, p, m, o, cfg), r, mu, omega)
    r = float_3vector(r, "point")
    return _state_coefficients(*_point_parts(frame_field, r, cfg), r, mu,
                               omega)


def apply_streaming(coeffs: StreamingCoefficients, omega_dir,
                    spatial_grad_psi, dpsi_dmu: float,
                    dpsi_domega: float) -> float:
    """Assembled Omega . grad Psi from precomputed pieces.

    OutOfRange where coeffs is not a StreamingCoefficients of one state
    or omega_dir is not a 3-vector, InconsistentDirection where
    omega_dir does not reconstruct from (mu, omega, frame) within 1e-10
    (a NaN entry included), OutOfRange where spatial_grad_psi is not a
    finite 3-vector, and OutOfRange where dpsi_dmu or dpsi_domega is not
    a number."""
    _one_frame(instance_of(coeffs, StreamingCoefficients, "coeffs").frame,
               "coeffs")
    d = float_3vector(omega_dir, "direction")
    _, mu, omega = coeffs.at
    rebuilt = direction_from_angles(coeffs.frame, mu, omega)
    if not float(np.max(np.abs(d - rebuilt))) <= 1e-10:
        raise InconsistentDirection(
            "direction does not match the coefficient state")
    grad = float_vector(spatial_grad_psi, "spatial gradient")
    dpsi_dmu = float_scalar(dpsi_dmu, "dpsi_dmu")
    dpsi_domega = float_scalar(dpsi_domega, "dpsi_domega")
    return float(d @ grad + coeffs.a_mu * dpsi_dmu
                 + coeffs.a_omega * dpsi_domega)
