"""Directional derivatives, Jacobians, and curls of vector fields.

Two interchangeable engines: dual-number forward mode (exact for
analytic fields) and central finite differences with optional
Richardson extrapolation.  Fields are callables taking one 3-sequence
of scalars; the dual engine feeds them Dual scalars.
"""
from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import dual as dm
from .errors import EvaluationFailure, OutOfRange

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
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
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
    r = np.asarray(r, dtype=float)
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_gradient(r))
        return np.array([dm.tangent(c) for c in out], dtype=float)
    # C order, as np.stack gave: a transposed layout would send later
    # matvecs through another BLAS kernel, which rounds differently.
    return np.ascontiguousarray(
        np.moveaxis(_fd_stencil(field, r, np.eye(3), cfg), 0, -1))


def axial_vector(j):
    """Axial vector of the antisymmetric part of a 3x3 matrix; for a
    Jacobian it is the curl of the field."""
    return np.array([j[2, 1] - j[1, 2],
                     j[0, 2] - j[2, 0],
                     j[1, 0] - j[0, 1]])


def curl(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Standard curl assembled from the Jacobian's antisymmetric part."""
    return axial_vector(jacobian(field, r, cfg))


@dataclasses.dataclass(frozen=True)
class FrameJet:
    """Frame vectors and all three Jacobians at one point.

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
    """The nine curvature scalars of a frame at one point, named as the
    catalog's: s_ab = a . grad_b n; kn_t, kn_b = t, b . kappa^n;
    kt_b = b . kappa^t; kb_t = t . kappa^b; winding = t . grad_n b."""

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
    """The nine scalars of a frame jet.

    One stacked matvec gives every J @ V and one stacked dot every
    W . (J @ V), for J in (jn, jt, jb) and V, W in (n, t, b).  Each item
    goes through the BLAS kernel that ``jn @ t`` and ``t @ x`` use on
    their own, so the scalars keep those bits (``einsum`` does not).
    """
    v = np.array([jet.n, jet.t, jet.b])
    jv = np.matmul(np.array([jet.jn, jet.jt, jet.jb])[:, None],
                   v[None, :, :, None])
    # sn[V][W] = W . (jn @ V), likewise st for jt and sb for jb.
    sn, st, sb = np.matmul(v[None, None, :, None, :],
                           jv[:, :, None]).reshape(3, 3, 3).tolist()
    n, t, b = 0, 1, 2
    return FrameScalars(
        s_tt=sn[t][t], s_tb=sn[b][t], s_bt=sn[t][b], s_bb=sn[b][b],
        kn_t=-sn[n][t], kn_b=-sn[n][b], kt_b=-st[t][b], kb_t=-sb[b][t],
        winding=sb[n][t])


def frame_jet(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> FrameJet:
    """Evaluate a frame field and its three Jacobians in one pass."""
    # The raw field is looked up at each call, so a wrapped instance
    # attribute sees every probe; a raw without a triple fails in it.
    def triple(p):
        n, t, b = frame_field.raw(p[0], p[1], p[2])
        return n, t, b

    r = np.asarray(r, dtype=float)
    if cfg.engine == DUAL:
        n, t, b = _probe(triple, dm.seed_gradient(r))
        # Flat lists convert faster than nested ones.
        comps = (*n, *t, *b)
        vals = np.array([dm.value(c) for c in comps],
                        dtype=float).reshape(3, 3)
        jacs = np.array([e for c in comps for e in dm.tangent(c)],
                        dtype=float).reshape(3, 3, 3)
        return FrameJet(vals[0], vals[1], vals[2], jacs[0], jacs[1], jacs[2])

    n, t, b = np.asarray(_probe(triple, tuple(r.tolist())), dtype=float)
    jn, jt, jb = jacobian(triple, r, cfg)
    return FrameJet(n, t, b, jn, jt, jb)
