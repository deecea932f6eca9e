"""Directional derivatives, Jacobians, and curls of vector fields.

Two interchangeable engines: dual-number forward mode (exact for
analytic fields) and Richardson-extrapolated central finite
differences.  Fields are callables taking one 3-sequence
of scalars; the dual engine feeds them Dual scalars.

A one-point evaluation does its elementwise steps (the fd probes and
Richardson step, the direction Omega) on Python floats, in the
operation order of the stacked arrays, and uses numpy only for the
contractions, whose bits come from its BLAS kernels: so one point and
a stack give the same bits.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
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


# The coordinate axes: the probe directions of a Jacobian's columns.
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _richardson(f_h, f_mh, f_h2, f_mh2, h):
    """The central differences over h and h/2 of the values at the
    probes h, -h, h/2 and -h/2, Richardson-extrapolated: floats, or
    arrays whose entries get the bits of floats."""
    d = (f_h - f_mh) / (2.0 * h)
    d_half = (f_h2 - f_mh2) / (2.0 * (h / 2.0))
    return (4.0 * d_half - d) / 3.0


def _stencil(pts, cfg):
    """The central-difference probes at each row of an (N, 3) array pts
    along each axis: on axes (axes, steps, points, 3), steps h, -h,
    h/2, -h/2."""
    h = cfg.fd_step
    offsets = np.eye(3)[:, None, :] * np.array(
        [h, -h, h / 2.0, -h / 2.0])[:, None]
    return pts + offsets[:, :, None]


def _differences(f, cfg):
    """Derivatives from the outputs f at the probes of _stencil, on its
    axes, by _richardson on arrays, so that every entry has the bits of
    _point_stencil.  Item k of the last axis is along axis k, in C order
    as np.stack gave: a transposed layout would send later matvecs
    through another BLAS kernel, which rounds differently."""
    return np.ascontiguousarray(np.moveaxis(
        _richardson(f[:, 0], f[:, 1], f[:, 2], f[:, 3], cfg.fd_step), 0, -1))


def _point_stencil(field, r, dirs, h):
    """The derivatives at one point r, three Python floats, along each
    of ``dirs``, float 3-tuples, of a field whose output at a probe is a
    flat sequence of numbers: a (components, directions) array,
    Richardson-extrapolated over {h, h/2}.

    The probes r + step * dir and the Richardson step run on floats, in
    the operation order of _stencil and _differences, so each entry has
    the bits of the stacked one; numpy only stores the result."""
    steps = (h, -h, h / 2.0, -h / 2.0)
    x, y, z = r
    outs = [_probe(field, (x + u * s, y + v * s, z + w * s))
            for u, v, w in dirs for s in steps]
    # One map per direction over the outputs at its probes, component by
    # component; zip makes a row of each component.
    return np.array(list(zip(*(
        map(_richardson, *outs[k:k + len(steps)], itertools.repeat(h))
        for k in range(0, len(outs), len(steps))))), dtype=float)


def _field_stencil(field, r, dirs, h):
    """_point_stencil of a generic field, each output converted by numpy
    and flattened: the derivatives have the outputs' shape, then an
    axis of the directions."""
    shapes = set()

    def flat(p):
        out = np.asarray(field(p), dtype=float)
        shapes.add(out.shape)
        return out.ravel().tolist()

    derivs = _point_stencil(flat, r, dirs, h)
    if len(shapes) != 1:
        raise EvaluationFailure(f"field returned values of shapes "
                                f"{sorted(shapes)} at the probes")
    return derivs.reshape(*shapes.pop(), len(dirs))


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
    return scale * _field_stencil(field, r.tolist(), [(h / scale).tolist()],
                                  cfg.fd_step)[..., 0]


def jacobian(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Column j = d(field)/d(coordinate j) at r, on a last axis (the fd
    engine also takes fields of stacked vectors)."""
    r = float_3vector(r, "point")
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_gradient(r))
        return np.array([dm.tangent(c) for c in out], dtype=float)
    return _field_stencil(field, r.tolist(), _AXES, cfg.fd_step)


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


def _combine(mu, s, c, sn, n, t, b):
    """mu n + s (c t + sn b), on floats or on arrays that broadcast."""
    return mu * n + s * (c * t + sn * b)


def _direction(jet: FrameJet, mu, s, c, sn):
    """Omega = mu n + s (c t + sn b): one 3-vector, or rows of 3 with
    the angle arrays' shape.  For one state, with float angles, the
    formula runs per coordinate on Python floats, in the order that it
    runs on arrays."""
    if isinstance(mu, np.ndarray):
        mu, s, c, sn = (a[..., None] for a in (mu, s, c, sn))
    elif jet.n.ndim == 1:
        return np.array([_combine(mu, s, c, sn, *v) for v in zip(
            jet.n.tolist(), jet.t.tolist(), jet.b.tolist())])
    return _combine(mu, s, c, sn, jet.n, jet.t, jet.b)


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
    # In field order: s_tt, s_tb, s_bt, s_bb, kn_t, kn_b, kt_b, kb_t,
    # winding (positional arguments build a NamedTuple fastest).
    return FrameScalars(sn[t][t], sn[b][t], sn[t][b], sn[b][b], -sn[n][t],
                        -sn[n][b], -st[t][b], -sb[b][t], sb[n][t])


def _point_parts(frame_field, r, cfg: DiffConfig):
    """The nine components at one point r, an ndarray of shape (3,),
    and their (9, 3) Jacobian."""
    comps = functools.partial(raw_components, frame_field)
    if cfg.engine == DUAL:
        flat = _probe(comps, dm.seed_gradient(r))
        vals = np.array([c.val if isinstance(c, dm.Dual) else c
                         for c in flat], dtype=float)
        jacs = np.array([(c.e0, c.e1, c.e2) if isinstance(c, dm.Dual)
                         else (0.0, 0.0, 0.0) for c in flat], dtype=float)
    else:
        p = r.tolist()
        vals = np.array(_probe(comps, tuple(p)), dtype=float)
        jacs = _point_stencil(comps, p, _AXES, cfg.fd_step)
    return vals, jacs


def _stack_parts(frame_field, pts, cfg: DiffConfig):
    """The nine components at the rows of pts, (N, 9), and their
    (N, 9, 3) Jacobian, from one raw call: on array Duals for the dual
    engine, on the points and their stencil probes for fd."""
    if cfg.engine == DUAL:
        return raw_parts(frame_field, pts, dual=True)
    probes = _stencil(pts, cfg)
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
