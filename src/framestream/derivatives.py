"""Directional derivatives, Jacobians, and curls of vector fields.

Two interchangeable engines: dual-number forward mode (exact for
analytic fields) and Richardson-extrapolated central finite
differences.  Fields are callables taking one 3-sequence
of scalars; the dual engine feeds them Dual scalars.

A one-point evaluation does its elementwise steps (the fd probes and
Richardson step, the direction Omega) on Python floats, in the
operation order of the stacked arrays, and uses numpy only for the
contractions, whose bits come from its BLAS kernels: so one point and
a stack give the same bits.  At one point every contraction of the
frame scalars is one item of two broadcast numpy calls (_contractions),
which take the vectors as the rows of one array and the Jacobians as
one (3, 3, 3) array.  _point_values reads the raw at one point once:
the nine components as Python floats and their (9, 3) Jacobian.  The
one-state assembly in streaming carries those floats to its one array
of rows, with Omega as a fourth row, and builds no FrameJet; frame_jet
wraps them in an array.  A stack makes only the six matvecs and nine
dots that the scalars read, each in a call of its own
(_stacked_scalars).

The fd stencil of one point calls the raw bare at each probe, in one
loop inside one try, which names a failing probe as _probe does; each
output passes the raw's one shape test (frames._flat_raw).  The
Richardson step of every (component, direction) pair is one list
comprehension (_richardson), the formula that the stacked stencil
maps over its direction axis.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import numbers
from typing import NamedTuple

import numpy as np

from . import dual as dm
from .errors import EvaluationFailure, OutOfRange
from .frames import (_flat_raw, float_3vector, float_array, on_stack,
                     raw_components, raw_parts)

DUAL = "dual"
FD = "fd"


@dataclasses.dataclass(frozen=True)
class DiffConfig:
    engine: str = DUAL
    fd_step: float = 1e-5

    def __post_init__(self):
        if not isinstance(self.engine, str) or self.engine not in (DUAL, FD):
            raise OutOfRange(f"unknown engine {self.engine!r}")
        if not isinstance(self.fd_step, numbers.Real):
            raise OutOfRange(f"fd_step must be a number, not "
                             f"{self.fd_step!r}")
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
    """The Richardson step of step h, mapped over four equal-length
    sequences of the values at the probes h, -h, h/2 and -h/2: the
    central differences over h and h/2, extrapolated, as a list.  The
    items are floats, or arrays whose entries get the bits of floats."""
    two_h, two_half_h = 2.0 * h, 2.0 * (h / 2.0)
    return [(4.0 * ((a2 - b2) / two_half_h) - (a - b) / two_h) / 3.0
            for a, b, a2, b2 in zip(f_h, f_mh, f_h2, f_mh2)]


def _stencil(pts, cfg):
    """The central-difference probes at each row of an (N, 3) array pts
    along each axis: on axes (axes, steps, points, 3), steps h, -h,
    h/2, -h/2."""
    h = cfg.fd_step
    offsets = np.eye(3)[:, None, :] * np.array(
        [h, -h, h / 2.0, -h / 2.0])[:, None]
    return pts + offsets[:, :, None]


def _differences(f, cfg):
    """Derivatives from the outputs f at the probes of _stencil, by
    _richardson over its axes, one (N, ...) array per axis, so that every
    entry has the bits of _point_stencil.  Item k of the last axis is
    along axis k, in C order as np.stack gives it: a transposed layout
    would send later matvecs through another BLAS kernel, which rounds
    differently."""
    return np.stack(_richardson(f[:, 0], f[:, 1], f[:, 2], f[:, 3],
                                cfg.fd_step), axis=-1)


def _point_stencil(raw, flat, r, dirs, h):
    """The derivatives at one point r, three Python floats, along each
    of ``dirs``, float 3-tuples, of a field whose output at a probe p is
    flat(raw(*p), p), a flat sequence of numbers: a (components,
    directions) array, Richardson-extrapolated over {h, h/2}.

    The probes r + step * dir run in one loop, in the order and the
    operation order of _stencil, and a probe where raw or flat raises is
    named in an EvaluationFailure, as _probe names it.  One _richardson
    on floats then gives every (component, direction) entry in C order,
    with the bits of the stacked one; numpy only stores the result."""
    steps = (h, -h, h / 2.0, -h / 2.0)
    x, y, z = r
    outs = []
    try:
        for u, v, w in dirs:
            for s in steps:
                p = (x + u * s, y + v * s, z + w * s)
                outs.append(flat(raw(*p), p))
    except EvaluationFailure:
        raise
    except Exception as exc:
        raise EvaluationFailure(f"field raised at probe {p}") from exc
    # The outputs component by component, each over the probes in order:
    # four values in a row are one direction's at the four steps.  Handed
    # the one iterator four times, _richardson's zip takes them in rows
    # of four, so its list runs over (component, direction) in C order.
    values = itertools.chain.from_iterable(zip(*outs))
    return np.array(_richardson(values, values, values, values, h),
                    dtype=float).reshape(-1, len(dirs))


def _field_stencil(field, r, dirs, h):
    """_point_stencil of a generic field, each output converted by numpy
    and flattened: the derivatives have the outputs' shape, then an
    axis of the directions.  EvaluationFailure at the first probe whose
    output has another shape than those before it."""
    shapes = set()

    def flat(out, p):
        out = np.asarray(out, dtype=float)
        shapes.add(out.shape)
        if len(shapes) != 1:
            raise EvaluationFailure(f"field returned values of shapes "
                                    f"{sorted(shapes)} at the probes")
        return out.ravel().tolist()

    derivs = _point_stencil(lambda *p: field(p), flat, r, dirs, h)
    return derivs.reshape(*shapes.pop(), len(dirs))


def _tangents(out):
    """The tangents (e0, e1, e2) of a dual field's output, flat or
    nested: an array of the output's shape, then an axis of three, zero
    for a number.  EvaluationFailure where a value, or an entry of a
    ragged output, is neither a Dual nor a number."""
    leaves = np.array(out, dtype=object)
    tans = []
    for c in leaves.ravel().tolist():
        if not isinstance(c, dm.Dual):
            try:
                float(c)
            except (TypeError, ValueError):
                raise EvaluationFailure(
                    f"field returned {c!r}, not a number") from None
        tans.append(dm.tangent(c))
    return np.array(tans, dtype=float).reshape(*leaves.shape, 3)


def directional_derivative(field, r, h, cfg: DiffConfig = DEFAULT_CFG):
    """(h . grad) field at r, with the shape of the field's values."""
    r = float_3vector(r, "point")
    h = float_3vector(h, "direction")
    if cfg.engine == DUAL:
        return np.ascontiguousarray(
            _tangents(_probe(field, dm.seed_direction(r, h)))[..., 0])
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(3)
    return scale * _field_stencil(field, r.tolist(), [(h / scale).tolist()],
                                  cfg.fd_step)[..., 0]


def jacobian(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Column j = d(field)/d(coordinate j) at r, on a last axis after
    the shape of the field's values: (3, 3) for a 3-vector field,
    (3, 3, 3) for a field of three stacked vectors, on either engine."""
    r = float_3vector(r, "point")
    if cfg.engine == DUAL:
        return _tangents(_probe(field, dm.seed_gradient(r)))
    return _field_stencil(field, r.tolist(), _AXES, cfg.fd_step)


def axial_vector(j):
    """Axial vector of the antisymmetric part of a 3x3 matrix, or of
    each of a stack; for a Jacobian it is the curl of the field.  One
    matrix is read on floats, whose subtractions round as numpy's."""
    if j.ndim == 2:
        (_, j01, j02), (j10, _, j12), (j20, j21, _) = j.tolist()
        return np.array([j21 - j12, j02 - j20, j10 - j01])
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


def _contractions(v, j):
    """(sn, st, sb) with sn[V][W] = W . (jn @ V), likewise st for jt and
    sb for jb, for V, W the rows of v, (K, 3), and j = [jn, jt, jb], a
    C-contiguous (3, 3, 3) array, at one point.  Nested lists of floats.

    One stacked matvec gives every J @ V and one stacked dot every
    W . (J @ V).  Each item goes through the BLAS kernel that ``jn @ t``
    and ``t @ x`` use on their own, so the scalars keep those bits
    (``einsum`` does not)."""
    jv = np.matmul(j[:, None], v[None, ..., None])
    return np.matmul(v[None, None, :, None, :],
                     jv[:, :, None])[..., 0, 0].tolist()


def _scalars(sn, st, sb) -> FrameScalars:
    n, t, b = 0, 1, 2
    # In field order: s_tt, s_tb, s_bt, s_bb, kn_t, kn_b, kt_b, kb_t,
    # winding (positional arguments build a NamedTuple fastest).
    return FrameScalars(sn[t][t], sn[b][t], sn[t][b], sn[b][b], -sn[n][t],
                        -sn[n][b], -st[t][b], -sb[b][t], sb[n][t])


def _stacked_scalars(jet: FrameJet) -> FrameScalars:
    """The nine scalars of a stacked jet from the six matvecs (jn n,
    jn t, jn b, jt t, jb b, jb n) and the nine dots that they read, each
    through _matvec and _dot: every item keeps the BLAS kernel, and so
    the bits, that it has among _contractions' items."""
    n, t, b = jet.n, jet.t, jet.b
    jn_n, jn_t, jn_b = (_matvec(jet.jn, v) for v in (n, t, b))
    jt_t, jb_b, jb_n = (_matvec(jet.jt, t), _matvec(jet.jb, b),
                        _matvec(jet.jb, n))
    return FrameScalars(_dot(jn_t, t), _dot(jn_b, t), _dot(jn_t, b),
                        _dot(jn_b, b), -_dot(jn_n, t), -_dot(jn_n, b),
                        -_dot(jt_t, b), -_dot(jb_b, t), _dot(jb_n, t))


def frame_scalars(jet: FrameJet) -> FrameScalars:
    """The nine scalars of a frame jet: at one point from two numpy
    calls (see _contractions), on a stack from only the contractions
    that they read (_stacked_scalars)."""
    if jet.n.ndim == 1:
        return _scalars(*_contractions(np.array([jet.n, jet.t, jet.b]),
                                       np.array([jet.jn, jet.jt, jet.jb])))
    return _stacked_scalars(jet)


def _point_values(frame_field, r, cfg: DiffConfig):
    """The nine components at one point r, an ndarray of shape (3,), as
    a list of floats, and their C-contiguous (9, 3) Jacobian: from one
    raw call on Duals, or on the point and then its 12 stencil probes."""
    comps, p = functools.partial(raw_components, frame_field), r.tolist()
    if cfg.engine == DUAL:
        dual, vals, tans = dm.Dual, [], []
        for c in _probe(comps, dm.seed_gradient(p)):
            is_dual = c.__class__ is dual
            vals.append(c.val if is_dual else c)
            tans += (c.e0, c.e1, c.e2) if is_dual else (0.0, 0.0, 0.0)
        vals = np.array(vals, dtype=float).tolist()
        jacs = np.array(tans, dtype=float).reshape(9, 3)
    else:
        vals = np.array(_probe(comps, tuple(p)), dtype=float).tolist()
        jacs = _point_stencil(frame_field.raw, _flat_raw, p, _AXES,
                              cfg.fd_step)
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
        vals, jacs = _point_values(frame_field, r, cfg)
        vals = np.array(vals)
    else:
        vals, jacs = on_stack(lambda: _stack_parts(frame_field, r, cfg),
                              lambda p: _point_values(frame_field, p, cfg), r)
    return FrameJet(vals[..., 0:3], vals[..., 3:6], vals[..., 6:9],
                    jacs[..., 0:3, :], jacs[..., 3:6, :], jacs[..., 6:9, :])
