"""Coefficients of d/dmu and d/domega in the frame-adapted streaming
term, in every derivable form, plus the assembled directional
derivative Omega . grad Psi."""
from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .derivatives import DEFAULT_CFG, DiffConfig, FrameJet, frame_jet
from .errors import (FoliationMissing, InconsistentBreakdown,
                     InconsistentDirection, OutOfRange, PolarDirection)
from .frames import FramePoint

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


def _foliation_defect_from(jet_vec, jet_jac) -> float:
    rot = np.array([jet_jac[2, 1] - jet_jac[1, 2],
                    jet_jac[0, 2] - jet_jac[2, 0],
                    jet_jac[1, 0] - jet_jac[0, 1]])
    return float(jet_vec @ rot)


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


def grad_mu(frame_field, r, mu, omega, form: MuForm = MuForm.CURVE_CURVATURE,
            cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of mu = Omega . n along a straight ray."""
    if not -1.0 <= mu <= 1.0:
        raise OutOfRange(f"mu = {mu} outside [-1, 1]")
    jet = frame_jet(frame_field, np.asarray(r, dtype=float), cfg)
    s, c, sn = _angles(mu, omega)
    n, t, b = jet.n, jet.t, jet.b
    if form is MuForm.SURFACE_CURVATURE:
        defect = _foliation_defect_from(n, jet.jn)
        if abs(defect) > _FOLIATION_TOL:
            raise FoliationMissing(
                f"n-foliation defect {defect:.3e} exceeds {_FOLIATION_TOL}")
        quad = (c * c * float(t @ (jet.jn @ t))
                + sn * c * float(t @ (jet.jn @ b) + b @ (jet.jn @ t))
                + sn * sn * float(b @ (jet.jn @ b)))
    elif form is MuForm.CURVE_CURVATURE:
        n_kt = -float(n @ (jet.jt @ t))
        n_kb = -float(n @ (jet.jb @ b))
        cross = float(n @ (jet.jt @ b) + n @ (jet.jb @ t))
        quad = c * c * n_kt + sn * sn * n_kb - sn * c * cross
    else:
        raise OutOfRange(f"unknown mu form {form!r}")
    along_n = c * float(t @ (jet.jn @ n)) + sn * float(b @ (jet.jn @ n))
    return (1.0 - mu * mu) * quad + mu * s * along_n


def grad_omega(frame_field, r, mu, omega,
               form: OmegaForm = OmegaForm.DIRECT_TB,
               cfg: DiffConfig = DEFAULT_CFG) -> float:
    """Rate of change of the azimuth's defining projection, t . grad_Omega b.

    All forms evaluate the same quantity through different derivative
    routes; the surface routes additionally require their foliation."""
    check_mu(mu)
    jet = frame_jet(frame_field, np.asarray(r, dtype=float), cfg)
    s, c, sn = _angles(mu, omega)
    n, t, b = jet.n, jet.t, jet.b
    omega_vec = mu * n + s * (c * t + sn * b)
    if form is OmegaForm.DIRECT_TB:
        return float(t @ (jet.jb @ omega_vec))
    if form is OmegaForm.DIRECT_BT:
        return -float(b @ (jet.jt @ omega_vec))
    if form is OmegaForm.CURVE_CURVATURE:
        b_kt = -float(b @ (jet.jt @ t))
        t_kb = -float(t @ (jet.jb @ b))
        wind = float(t @ (jet.jb @ n))
        return s * (c * b_kt - sn * t_kb) + mu * wind
    if form is OmegaForm.SURFACE_B:
        defect = _foliation_defect_from(b, jet.jb)
        if abs(defect) > _FOLIATION_TOL:
            raise FoliationMissing(
                f"b-foliation defect {defect:.3e} exceeds {_FOLIATION_TOL}")
        return (s * c * float(t @ (jet.jb @ t))
                + mu * float(t @ (jet.jb @ n))
                + s * sn * float(t @ (jet.jb @ b)))
    if form is OmegaForm.SURFACE_T:
        defect = _foliation_defect_from(t, jet.jt)
        if abs(defect) > _FOLIATION_TOL:
            raise FoliationMissing(
                f"t-foliation defect {defect:.3e} exceeds {_FOLIATION_TOL}")
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
    n, t, b = jet.n, jet.t, jet.b
    quad = (c * c * float(t @ (jet.jn @ t))
            + sn * c * float(t @ (jet.jn @ b) + b @ (jet.jn @ t))
            + sn * sn * float(b @ (jet.jn @ b)))
    mu_surface = (1.0 - mu * mu) * quad
    dn_n = jet.jn @ n
    mu_curve_n = mu * s * (c * float(t @ dn_n) + sn * float(b @ dn_n))

    b_kt = -float(b @ (jet.jt @ t))
    t_kb = -float(t @ (jet.jb @ b))
    omega_curve = s * (c * b_kt - sn * t_kb)
    omega_wind = mu * float(t @ (jet.jb @ n))
    dn_along = _matvec(jet.jn, _direction(jet, mu, s, c, sn))
    omega_tilt = -mu * (-sn * _dot(t, dn_along)
                        + c * _dot(b, dn_along)) / s
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
    s, c, sn = _angles(mu, omega)
    rebuilt = (mu * coeffs.frame.n + s * c * coeffs.frame.t
               + s * sn * coeffs.frame.b)
    if float(np.max(np.abs(d - rebuilt))) > 1e-10:
        raise InconsistentDirection(
            "direction does not match the coefficient state")
    grad = np.asarray(spatial_grad_psi, dtype=float)
    return float(d @ grad + coeffs.a_mu * dpsi_dmu
                 + coeffs.a_omega * dpsi_domega)
