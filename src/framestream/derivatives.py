"""Directional derivatives, Jacobians, and curls of vector fields.

Two interchangeable engines: dual-number forward mode (exact for
analytic fields) and Richardson-extrapolated central finite
differences.  Fields are callables taking one 3-sequence
of scalars; the dual engine feeds them Dual scalars.
"""
from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple

import numpy as np

from . import dual as dm
from .errors import EvaluationFailure, OutOfRange
from .frames import (float_3vector, float_array, on_stack, raw_components,
                     raw_parts)

DUAL = "dual"
FD = "fd"


@dataclasses.dataclass(frozen=True)
class DiffConfig:
    engine: str = DUAL
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.engine not in (DUAL, FD):
            raise OutOfRange(f"unknown engine {self.engine!r}")
        if not 1e-9 <= self.fd_step <= 1e-2:
            raise OutOfRange("fd_step must lie in [1e-9, 1e-2]")


DEFAULT_CFG = DiffConfig()


def _probe(field, p):
    try:
        out = field(p)
    except EvaluationFailure:
        raise
    except Exception as exc:
        raise EvaluationFailure(
            f"field raised at probe {tuple(map(dm.value, p))}") from exc
    return out


def _stencil(r, dirs, cfg):
    """The central-difference probes at r, one point or each row of an
    (N, 3) array, along each row of ``dirs``: on axes (dirs, steps,
    points, 3), steps h, -h, h/2, -h/2."""
    h = cfg.fd_step
    offsets = dirs[:, None, :] * np.array([h, -h, h / 2.0, -h / 2.0])[:, None]
    return r + (offsets[:, :, None] if r.ndim == 2 else offsets)


def _differences(f, cfg):
    """Derivatives from the outputs f at the probes of _stencil, on its
    axes, Richardson-extrapolated over {h, h/2}, in
    the operation order of one direction at a time, whose bits every
    entry keeps.  Item k of the last axis is along dirs[k], in C order
    as np.stack gave: a transposed layout would send later matvecs
    through another BLAS kernel, which rounds differently."""
    h = cfg.fd_step
    d = (f[:, 0] - f[:, 1]) / (2.0 * h)
    d_half = (f[:, 2] - f[:, 3]) / (2.0 * (h / 2.0))
    return np.ascontiguousarray(np.moveaxis((4.0 * d_half - d) / 3.0, 0, -1))


def _fd_stencil(field, r, dirs, cfg):
    """The derivatives of ``field`` at one point r along each row of
    ``dirs``; the field sees each probe as a tuple of Python floats."""
    probes = _stencil(r, dirs, cfg)
    f = np.array([_probe(field, tuple(p))
                  for p in probes.reshape(-1, 3).tolist()], dtype=float)
    return _differences(f.reshape(*probes.shape[:2], *f.shape[1:]), cfg)


def directional_derivative(field, r, h, cfg: DiffConfig = DEFAULT_CFG):
    """(h . grad) field at r."""
    r = float_3vector(r, "point")
    h = float_3vector(h, "direction")
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_direction(r, h))
        return np.array([dm.tangent(c)[0] for c in out])
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(3)
    return scale * _fd_stencil(field, r, (h / scale)[None, :], cfg)[..., 0]


def jacobian(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Column j = d(field)/d(coordinate j) at r, on a last axis (the fd
    engine also takes fields of stacked vectors)."""
    r = float_3vector(r, "point")
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_gradient(r))
        return np.array([dm.tangent(c) for c in out], dtype=float)
    return _fd_stencil(field, r, np.eye(3), cfg)


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
    return _dot(v, axial_vector(jv))


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


def _direction(jet: FrameJet, mu, s, c, sn):
    """Omega = mu n + s (c t + sn b): one 3-vector, or rows of 3 with
    the angle arrays' shape."""
    if isinstance(mu, np.ndarray):
        mu, s, c, sn = (a[..., None] for a in (mu, s, c, sn))
    return mu * jet.n + s * (c * jet.t + sn * jet.b)


def _matvec(m, v):
    """m @ v for one 3-vector or each row of a stack of them, (K, 3) or
    (N, K, 3), with one matrix m or a stack that broadcasts against the
    rows, in the BLAS kernel of the 3-vector (see frame_scalars);
    ``v @ m.T`` is one gemm and rounds differently in the last bit."""
    if v.ndim == 1:
        return m @ v
    return np.matmul(m, v[..., None])[..., 0]


def _dot(u, v):
    """u . v for one 3-vector v, or u . row for each row of a stack of
    them, (K, 3) or (N, K, 3), with one vector u or a stack that
    broadcasts against the rows, in the BLAS kernel of the 3-vector."""
    if v.ndim == 1:
        return float(u @ v)
    return np.matmul(v[..., None, :], u[..., None])[..., 0, 0]


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


def _point_parts(frame_field, r, cfg: DiffConfig):
    """The nine components at one point r, an ndarray of shape (3,),
    and their (9, 3) Jacobian."""
    comps = functools.partial(raw_components, frame_field)
    if cfg.engine == DUAL:
        flat = _probe(comps, dm.seed_gradient(r))
        vals = np.array([dm.value(c) for c in flat], dtype=float)
        jacs = np.array([e for c in flat for e in dm.tangent(c)],
                        dtype=float).reshape(9, 3)
    else:
        vals = np.array(_probe(comps, tuple(r.tolist())), dtype=float)
        jacs = jacobian(comps, r, cfg)
    return vals, jacs


def _stack_parts(frame_field, pts, cfg: DiffConfig):
    """The nine components at the rows of pts, (N, 9), and their
    (N, 9, 3) Jacobian, from one raw call: on array Duals for the dual
    engine, on the points and their stencil probes for fd."""
    if cfg.engine == DUAL:
        return raw_parts(frame_field, pts, dual=True)
    probes = _stencil(pts, np.eye(3), cfg)
    f = raw_parts(frame_field, np.concatenate([pts, probes.reshape(-1, 3)]))[0]
    return f[:len(pts)], _differences(
        f[len(pts):].reshape(*probes.shape[:-1], 9), cfg)


def frame_jet(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> FrameJet:
    """Evaluate a frame field and its three Jacobians in one pass.

    r is one point, or an (N, 3) array of points for a stacked jet: one
    raw call (_stack_parts), through frames.on_stack.  Where that fails,
    the points go one by one through the single-point path, which raises
    what it would raise for the first failing point.  Every entry of a
    stacked jet has the bits of the single-point jet.
    """
    r = float_array(r, "point")
    if r.ndim > 2 or r.shape[-1:] != (3,):
        raise OutOfRange(f"point must be a 3-vector or an (N, 3) array, "
                         f"not of shape {r.shape}")
    if r.ndim == 1:
        vals, jacs = _point_parts(frame_field, r, cfg)
    else:
        vals, jacs = on_stack(lambda: _stack_parts(frame_field, r, cfg),
                              lambda p: _point_parts(frame_field, p, cfg), r)
    return FrameJet(vals[..., 0:3], vals[..., 3:6], vals[..., 6:9],
                    jacs[..., 0:3, :], jacs[..., 3:6, :], jacs[..., 6:9, :])
