"""Coefficients of d/dmu and d/domega in the frame-adapted streaming
term, in every derivable form, plus the assembled directional
derivative Omega . grad Psi."""
from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .derivatives import (DEFAULT_CFG, DiffConfig, FrameJet, FrameScalars,
                          axial_vector, frame_jet, frame_scalars)
from .errors import (FoliationMissing, InconsistentBreakdown,
                     InconsistentDirection, OutOfRange, PolarDirection)
from .frames import FramePoint, direction_from_angles

_POLAR_TOL = 1e-14
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
    tolerance is _BREAKDOWN_RTOL * (1 + the size of the parts): near a
    singular axis the parts reach 1e8, where rounding alone exceeds any
    fixed absolute bound."""
    mu_size = 1.0 + abs(mu_surface) + abs(mu_curve_n)
    if _any(abs(a_mu - mu_surface - mu_curve_n) > _BREAKDOWN_RTOL * mu_size):
        raise InconsistentBreakdown("a_mu breakdown inconsistent")
    omega_size = 1.0 + abs(omega_curve) + abs(omega_wind) + abs(omega_tilt)
    if _any(abs(a_omega - omega_curve - omega_wind - omega_tilt)
            > _BREAKDOWN_RTOL * omega_size):
        raise InconsistentBreakdown("a_omega breakdown inconsistent")


def _any(flags) -> bool:
    """True if a comparison of floats, or any entry of an array of
    comparisons, holds."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _require_foliation(label: str, vec, jac) -> None:
    """Raise FoliationMissing unless the planes normal to ``vec`` are
    integrable: vec . curl vec within _FOLIATION_TOL."""
    defect = float(vec @ axial_vector(jac))
    if abs(defect) > _FOLIATION_TOL:
        raise FoliationMissing(f"{label}-foliation defect {defect:.3e} "
                               f"exceeds {_FOLIATION_TOL}")


def _angles(mu: float, omega: float):
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    return s, math.cos(omega), math.sin(omega)


def angle_arrays(mus, omegas):
    """Arrays (mu, s, c, sn) for paired lists of mu and omega, each entry
    computed by the same math calls as a single state."""
    trig = [_angles(mu, omega) for mu, omega in zip(mus, omegas)]
    return (np.array(mus, dtype=float),
            *(np.array(column) for column in zip(*trig)))


def check_mu(mu) -> None:
    """Raise OutOfRange for mu outside [-1, 1] and PolarDirection for mu
    at +-1, where omega is undefined.  For an array the entry of largest
    magnitude (or the first NaN) decides."""
    if isinstance(mu, np.ndarray):
        mu = float(mu[np.argmax(np.abs(mu))])
    if not -1.0 <= mu <= 1.0:
        raise OutOfRange(f"mu = {mu} outside [-1, 1]")
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


def grad_mu(frame_field, r, mu, omega, form: MuForm = MuForm.CURVE_CURVATURE,
            cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of mu = Omega . n along a straight ray."""
    if not -1.0 <= mu <= 1.0:
        raise OutOfRange(f"mu = {mu} outside [-1, 1]")
    jet = frame_jet(frame_field, np.asarray(r, dtype=float), cfg)
    return grad_mu_from_jet(jet, mu, *_angles(mu, omega), form)


def grad_mu_from_jet(jet: FrameJet, mu, s, c, sn, form: MuForm) -> float:
    """grad_mu from a precomputed frame jet and the angles that
    coefficient_terms takes."""
    n, t, b = jet.n, jet.t, jet.b
    if form is MuForm.SURFACE_CURVATURE:
        _require_foliation("n", n, jet.jn)
        surface, curve_n = _mu_terms(frame_scalars(jet), mu, s, c, sn)
        return surface + curve_n
    if form is not MuForm.CURVE_CURVATURE:
        raise OutOfRange(f"unknown mu form {form!r}")
    # The route that form-equivalence compares against the shape
    # operator: the n-components of kappa^t and kappa^b.
    n_kt = -float(n @ (jet.jt @ t))
    n_kb = -float(n @ (jet.jb @ b))
    cross = float(n @ (jet.jt @ b) + n @ (jet.jb @ t))
    quad = c * c * n_kt + sn * sn * n_kb - sn * c * cross
    along_n = c * float(t @ (jet.jn @ n)) + sn * float(b @ (jet.jn @ n))
    return (1.0 - mu * mu) * quad + mu * s * along_n


def grad_omega(frame_field, r, mu, omega,
               form: OmegaForm = OmegaForm.DIRECT_TB,
               cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of the azimuth's defining projection, t . grad_Omega b.

    All forms evaluate the same quantity through different derivative
    routes; the surface routes additionally require their foliation.
    Only CURVE_CURVATURE goes through frame_scalars, which the others
    therefore check."""
    check_mu(mu)
    jet = frame_jet(frame_field, np.asarray(r, dtype=float), cfg)
    return grad_omega_from_jet(jet, mu, *_angles(mu, omega), form)


def grad_omega_from_jet(jet: FrameJet, mu, s, c, sn,
                        form: OmegaForm) -> float:
    """grad_omega from a precomputed frame jet and the angles that
    coefficient_terms takes."""
    n, t, b = jet.n, jet.t, jet.b
    omega_vec = _direction(jet, mu, s, c, sn)
    if form is OmegaForm.DIRECT_TB:
        return float(t @ (jet.jb @ omega_vec))
    if form is OmegaForm.DIRECT_BT:
        return -float(b @ (jet.jt @ omega_vec))
    if form is OmegaForm.CURVE_CURVATURE:
        curve, wind = _omega_terms(frame_scalars(jet), mu, s, c, sn)
        return curve + wind
    if form is OmegaForm.SURFACE_B:
        _require_foliation("b", b, jet.jb)
        return (s * c * float(t @ (jet.jb @ t))
                + mu * float(t @ (jet.jb @ n))
                + s * sn * float(t @ (jet.jb @ b)))
    if form is OmegaForm.SURFACE_T:
        _require_foliation("t", t, jet.jt)
        return (-s * c * float(b @ (jet.jt @ t))
                - mu * float(b @ (jet.jt @ n))
                - s * sn * float(b @ (jet.jt @ b)))
    raise OutOfRange(f"unknown omega form {form!r}")


def _direction(jet: FrameJet, mu, s, c, sn):
    """Omega = mu n + s (c t + sn b): one 3-vector, or (K, 3) rows."""
    if isinstance(mu, np.ndarray):
        mu, s, c, sn = mu[:, None], s[:, None], c[:, None], sn[:, None]
    return mu * jet.n + s * (c * jet.t + sn * jet.b)


def _matvec(m, v):
    """m @ v for one 3-vector or each row of a (K, 3) stack.  The stack
    goes through np.matmul on (K, 3, 1), which makes the same BLAS gemv
    call per row as the 3-vector; ``v @ m.T`` is one gemm and rounds
    differently in the last bit."""
    if v.ndim == 1:
        return m @ v
    return np.matmul(m, v[:, :, None])[:, :, 0]


def _dot(u, v):
    """u . v for one 3-vector v, or u . row for each row of a (K, 3)
    stack, through the same BLAS dot call either way."""
    if v.ndim == 1:
        return float(u @ v)
    return np.matmul(v[:, None, :], u)[:, 0]


def coefficient_terms(jet: FrameJet, mu, s, c, sn):
    """The coefficients and their contributions from a frame jet:
    (a_mu, a_omega, mu_surface, mu_curve_n, omega_curve, omega_wind,
    omega_tilt).

    mu, s = sqrt(1 - mu^2), c = cos(omega) and sn = sin(omega) are
    Python floats, or equal-length arrays holding many directions at
    the jet's point; each state gets the same bits either way.  The
    catalog assembles the same quantities from its own hand-derived
    scalars, and the ray oracle checks both without any jet.
    """
    k = frame_scalars(jet)
    mu_surface, mu_curve_n = _mu_terms(k, mu, s, c, sn)
    omega_curve, omega_wind = _omega_terms(k, mu, s, c, sn)
    dn_along = _matvec(jet.jn, _direction(jet, mu, s, c, sn))
    omega_tilt = -mu * (-sn * _dot(jet.t, dn_along)
                        + c * _dot(jet.b, dn_along)) / s
    return (mu_surface + mu_curve_n, omega_curve + omega_wind + omega_tilt,
            mu_surface, mu_curve_n, omega_curve, omega_wind, omega_tilt)


def coefficients_from_jet(jet: FrameJet, mu: float, omega: float,
                          at_point=None) -> StreamingCoefficients:
    """Assemble both coefficients from a precomputed frame jet."""
    check_mu(mu)
    at_point = (np.zeros(3) if at_point is None
                else np.asarray(at_point, dtype=float).copy())
    (a_mu, a_omega, mu_surface, mu_curve_n, omega_curve, omega_wind,
     omega_tilt) = coefficient_terms(jet, mu, *_angles(mu, omega))
    breakdown = {"mu_surface": mu_surface, "mu_curve_n": mu_curve_n,
                 "omega_curve": omega_curve, "omega_wind": omega_wind,
                 "omega_tilt": omega_tilt}
    return StreamingCoefficients(
        a_mu=a_mu, a_omega=a_omega, breakdown=breakdown,
        at=(at_point, mu, omega),
        frame=FramePoint.loose(jet.n, jet.t, jet.b))


def streaming_coefficients(frame_field, r, mu, omega,
                           cfg: DiffConfig = DEFAULT_CFG
                           ) -> StreamingCoefficients:
    """Both streaming coefficients and their breakdown at one state."""
    r = np.asarray(r, dtype=float)
    jet = frame_jet(frame_field, r, cfg)
    return coefficients_from_jet(jet, float(mu), float(omega), at_point=r)


def apply_streaming(coeffs: StreamingCoefficients, omega_dir,
                    spatial_grad_psi, dpsi_dmu: float,
                    dpsi_domega: float) -> float:
    """Assembled Omega . grad Psi from precomputed pieces.

    omega_dir must reconstruct from (mu, omega, frame) within 1e-10."""
    d = np.asarray(omega_dir, dtype=float)
    _, mu, omega = coeffs.at
    rebuilt = direction_from_angles(coeffs.frame, mu, omega)
    if float(np.max(np.abs(d - rebuilt))) > 1e-10:
        raise InconsistentDirection(
            "direction does not match the coefficient state")
    grad = np.asarray(spatial_grad_psi, dtype=float)
    return float(d @ grad + coeffs.a_mu * dpsi_dmu
                 + coeffs.a_omega * dpsi_domega)
