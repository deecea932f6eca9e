"""Directional derivatives, Jacobians, and curls of vector fields.

Two interchangeable engines: dual-number forward mode (exact for
analytic fields) and central finite differences with optional
Richardson extrapolation.  Fields are callables taking one 3-sequence
of scalars; the dual engine feeds them Dual scalars.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from . import dual as dm
from .errors import EvaluationFailure, OutOfRange
from .frames import array_attempt

DUAL = "dual"
FD = "fd"


@dataclasses.dataclass(frozen=True)
class DiffConfig:
    engine: str = DUAL
    fd_step: float = 1e-5
    richardson: bool = True

    def __post_init__(self):
        if self.engine not in (DUAL, FD):
            raise OutOfRange(f"unknown engine {self.engine!r}")
        if not 1e-9 <= self.fd_step <= 1e-2:
            raise OutOfRange("fd_step must lie in [1e-9, 1e-2]")


DEFAULT_CFG = DiffConfig()


def float_array(x, what: str) -> np.ndarray:
    """x as a float ndarray, or OutOfRange naming ``what`` where numpy
    cannot convert it (a string entry, rows of unequal length)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"{what} must be an array of numbers: {exc}") from exc


def float_angles(mu, omega) -> tuple:
    """(mu, omega) as Python floats, or OutOfRange where one is not a
    number, or where omega is infinite and so has no cosine."""
    try:
        mu, omega = float(mu), float(omega)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"mu and omega must be numbers: {exc}") from exc
    if math.isinf(omega):
        raise OutOfRange(f"omega = {omega} is not finite")
    return mu, omega


def _probe(field, p):
    try:
        out = field(p)
    except EvaluationFailure:
        raise
    except Exception as exc:
        raise EvaluationFailure(
            f"field raised at probe {tuple(map(dm.value, p))}") from exc
    return out


def _fd_stencil(field, r, dirs, cfg):
    """Central differences of ``field`` at r along each row of ``dirs``,
    Richardson-extrapolated over {h, h/2} when cfg.richardson.

    Every probe point comes from one array expression, in the order
    dir by dir, steps (h, -h, h/2, -h/2); the field sees each as a
    tuple of Python floats.  The outputs become one array, and the
    differences run over it in the per-direction operation order, so
    the result is bit-identical to differencing one direction at a
    time.  Row k of the result is the derivative along dirs[k].
    """
    h = cfg.fd_step
    steps = [h, -h, h / 2.0, -h / 2.0] if cfg.richardson else [h, -h]
    probes = r + dirs[:, None, :] * np.array(steps)[:, None]
    f = np.array([_probe(field, tuple(p))
                  for p in probes.reshape(-1, 3).tolist()], dtype=float)
    f = f.reshape(dirs.shape[0], len(steps), *f.shape[1:])
    d = (f[:, 0] - f[:, 1]) / (2.0 * h)
    if cfg.richardson:
        d_half = (f[:, 2] - f[:, 3]) / (2.0 * (h / 2.0))
        d = (4.0 * d_half - d) / 3.0
    return d


def directional_derivative(field, r, h, cfg: DiffConfig = DEFAULT_CFG):
    """(h . grad) field at r."""
    r = float_array(r, "point")
    h = float_array(h, "direction")
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_direction(r, h))
        return np.array([dm.tangent(c)[0] for c in out])
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(3)
    return scale * _fd_stencil(field, r, (h / scale)[None, :], cfg)[0]


def jacobian(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Column j = d(field)/d(coordinate j) at r, on a last axis (the fd
    engine also takes fields of stacked vectors)."""
    r = float_array(r, "point")
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_gradient(r))
        return np.array([dm.tangent(c) for c in out], dtype=float)
    # C order, as np.stack gave: a transposed layout would send later
    # matvecs through another BLAS kernel, which rounds differently.
    return np.ascontiguousarray(
        np.moveaxis(_fd_stencil(field, r, np.eye(3), cfg), 0, -1))


def axial_vector(j):
    """Axial vector of the antisymmetric part of a 3x3 matrix, or of
    each of a stack; for a Jacobian it is the curl of the field."""
    return np.stack([j[..., 2, 1] - j[..., 1, 2],
                     j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]], axis=-1)


def curl(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Standard curl assembled from the Jacobian's antisymmetric part."""
    return axial_vector(jacobian(field, r, cfg))


def twist(v, jv):
    """V . curl V from a field V and its Jacobian jv, at one point (a
    float) or at each row of a stack (an array); zero certifies that
    the planes normal to V integrate locally."""
    curl_v = axial_vector(jv)
    if v.ndim == 1:
        return float(v @ curl_v)
    return np.matmul(curl_v[..., None, :], v[..., None])[..., 0, 0]


@dataclasses.dataclass(frozen=True)
class FrameJet:
    """Frame vectors and all three Jacobians at one point, or stacked
    over N points: (N, 3) vectors and (N, 3, 3) Jacobians.

    Column j of each Jacobian is the derivative along coordinate j;
    a directional derivative of, say, n along h is ``jn @ h``.
    """

    n: np.ndarray
    t: np.ndarray
    b: np.ndarray
    jn: np.ndarray
    jt: np.ndarray
    jb: np.ndarray


class FrameScalars(NamedTuple):
    """The nine curvature scalars of a frame at one point (floats), or
    at each point of a stacked jet (arrays), named as the catalog's:
    s_ab = a . grad_b n; kn_t, kn_b = t, b . kappa^n; kt_b = b . kappa^t;
    kb_t = t . kappa^b; winding = t . grad_n b."""

    s_tt: float
    s_tb: float
    s_bt: float
    s_bb: float
    kn_t: float
    kn_b: float
    kt_b: float
    kb_t: float
    winding: float

    def normal_curvature(self, c, sn):
        """The shape operator's quadratic form at the unit tangent
        c t + sn b: the normal curvature of the n-leaf along it."""
        return (c * c * self.s_tt + sn * c * (self.s_tb + self.s_bt)
                + sn * sn * self.s_bb)


def frame_scalars(jet: FrameJet) -> FrameScalars:
    """The nine scalars of a frame jet, one point or stacked.

    One stacked matvec gives every J @ V and one stacked dot every
    W . (J @ V), for J in (jn, jt, jb) and V, W in (n, t, b).  Each item
    goes through the BLAS kernel that ``jn @ t`` and ``t @ x`` use on
    their own, so the scalars keep those bits (``einsum`` does not).
    """
    v = np.array([jet.n, jet.t, jet.b])
    jv = np.matmul(np.array([jet.jn, jet.jt, jet.jb])[:, None],
                   v[None, ..., None])
    # sn[V][W] = W . (jn @ V), likewise st for jt and sb for jb.
    dots = np.matmul(v[None, None, ..., None, :], jv[:, :, None])[..., 0, 0]
    sn, st, sb = dots.tolist() if dots.ndim == 3 else dots
    n, t, b = 0, 1, 2
    return FrameScalars(
        s_tt=sn[t][t], s_tb=sn[b][t], s_bt=sn[t][b], s_bb=sn[b][b],
        kn_t=-sn[n][t], kn_b=-sn[n][b], kt_b=-st[t][b], kb_t=-sb[b][t],
        winding=sb[n][t])


def _components(frame_field, p):
    """The nine components of the frame's raw at probe p, flat in the
    order n, t, b: flat sequences convert to arrays faster than nested
    ones."""
    # The raw field is looked up at each call, so a wrapped instance
    # attribute sees every probe; a raw without a triple fails here.
    n, t, b = frame_field.raw(p[0], p[1], p[2])
    if len(n) != 3 or len(t) != 3 or len(b) != 3:
        raise EvaluationFailure(
            f"field returned vectors of lengths ({len(n)}, {len(t)}, "
            f"{len(b)}), not 3, at probe {tuple(map(dm.value, p))}")
    return (*n, *t, *b)


def _point_jet(frame_field, r, cfg: DiffConfig) -> FrameJet:
    """The jet at one point r, an ndarray of shape (3,)."""
    comps = functools.partial(_components, frame_field)
    if cfg.engine == DUAL:
        flat = _probe(comps, dm.seed_gradient(r))
        vals = np.array([dm.value(c) for c in flat], dtype=float)
        jacs = np.array([e for c in flat for e in dm.tangent(c)],
                        dtype=float)
    else:
        vals = np.array(_probe(comps, tuple(r.tolist())), dtype=float)
        jacs = jacobian(comps, r, cfg)
    vals = vals.reshape(3, 3)
    jacs = jacs.reshape(3, 3, 3)
    return FrameJet(vals[0], vals[1], vals[2], jacs[0], jacs[1], jacs[2])


def _dual_jets(frame_field, pts) -> FrameJet:
    """The stacked jet at the rows of pts from one raw call on array
    Duals.  Raises as array_attempt does, and on output that is not
    three vectors of three components, each a float or an array of one
    entry per point."""
    count = len(pts)
    vals = np.empty((count, 9))
    jacs = np.empty((count, 9, 3))
    with array_attempt():
        for k, c in enumerate(_components(frame_field,
                                          dm.seed_gradient(pts))):
            parts = ((c.val, c.e0, c.e1, c.e2) if isinstance(c, dm.Dual)
                     else (c, 0.0, 0.0, 0.0))
            if any(np.shape(part) not in ((), (count,)) for part in parts):
                raise ValueError("component of another length")
            vals[:, k] = parts[0]
            for j in range(3):
                jacs[:, k, j] = parts[j + 1]
    return _stacked(vals.reshape(count, 3, 3),
                    jacs.reshape(count, 3, 3, 3))


def _stacked(vals, jacs) -> FrameJet:
    """The stacked jet of (N, 3, 3) vectors and (N, 3, 3, 3) Jacobians,
    in the order n, t, b on axis 1."""
    return FrameJet(vals[:, 0], vals[:, 1], vals[:, 2], jacs[:, 0],
                    jacs[:, 1], jacs[:, 2])


def frame_jet(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> FrameJet:
    """Evaluate a frame field and its three Jacobians in one pass.

    r is one point, or an (N, 3) array of points for a stacked jet.  On
    the dual engine a stack is one raw call on array Duals.  When that
    call raises (the raw rejects arrays, say) or returns malformed
    output, when array_attempt trips, or when a point is not finite,
    the points go one by one through the single-point path, which
    raises what it would raise for the first failing point.  Every
    entry of a stacked jet has the bits of the single-point jet.
    """
    r = float_array(r, "point")
    if r.ndim > 2 or r.shape[-1:] != (3,):
        raise OutOfRange(f"point must be a 3-vector or an (N, 3) array, "
                         f"not of shape {r.shape}")
    if r.ndim == 1:
        return _point_jet(frame_field, r, cfg)
    # Non-finite points go one by one: array arithmetic on them raises
    # no flag where the float operations of the single path might.
    if cfg.engine == DUAL and len(r) and np.isfinite(r).all():
        try:
            return _dual_jets(frame_field, r)
        except Exception:  # replayed below, point by point
            pass
    vals = np.empty((len(r), 3, 3))
    jacs = np.empty((len(r), 3, 3, 3))
    for i, p in enumerate(r):
        jet = _point_jet(frame_field, p, cfg)
        vals[i] = jet.n, jet.t, jet.b
        jacs[i] = jet.jn, jet.jt, jet.jb
    return _stacked(vals, jacs)
