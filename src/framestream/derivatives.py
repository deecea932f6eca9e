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
from .dual import Dual
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
        raise EvaluationFailure(f"field raised at probe {tuple(p)}") from exc
    return out


def _tangent_row(component, width):
    if isinstance(component, Dual):
        return component.eps
    return (0.0,) * width


def directional_derivative(field, r, h, cfg: DiffConfig = DEFAULT_CFG):
    """(h . grad) field at r."""
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_direction(r, h))
        return np.array([_tangent_row(c, 1)[0] for c in out])
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(3)
    u = h / scale

    def central(step):
        fp = np.asarray(_probe(field, tuple(r + step * u)), dtype=float)
        fm = np.asarray(_probe(field, tuple(r - step * u)), dtype=float)
        return (fp - fm) / (2.0 * step)

    d = central(cfg.fd_step)
    if cfg.richardson:
        d_half = central(cfg.fd_step / 2.0)
        d = (4.0 * d_half - d) / 3.0
    return scale * d


def jacobian(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Column j = d(field)/d(coordinate j) at r, on a last axis (the fd
    engine also takes fields of stacked vectors)."""
    r = np.asarray(r, dtype=float)
    if cfg.engine == DUAL:
        out = _probe(field, dm.seed_gradient(r))
        return np.array([_tangent_row(c, 3) for c in out], dtype=float)
    cols = [directional_derivative(field, r, e, cfg)
            for e in np.eye(3)]
    return np.stack(cols, axis=-1)


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
    """The nine scalars of a frame jet."""
    n, t, b = jet.n, jet.t, jet.b
    jn_t, jn_b, jn_n = jet.jn @ t, jet.jn @ b, jet.jn @ n
    return FrameScalars(
        s_tt=float(t @ jn_t), s_tb=float(t @ jn_b),
        s_bt=float(b @ jn_t), s_bb=float(b @ jn_b),
        kn_t=-float(t @ jn_n), kn_b=-float(b @ jn_n),
        kt_b=-float(b @ (jet.jt @ t)), kb_t=-float(t @ (jet.jb @ b)),
        winding=float(t @ (jet.jb @ n)))


def frame_jet(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> FrameJet:
    """Evaluate a frame field and its three Jacobians in one pass."""
    r = np.asarray(r, dtype=float)
    if cfg.engine == DUAL:
        seeds = dm.seed_gradient(r)
        try:
            n, t, b = frame_field.raw(*seeds)
        except EvaluationFailure:
            raise
        except Exception as exc:
            raise EvaluationFailure(
                f"frame raised at {tuple(r)}") from exc
        vecs = []
        jacs = []
        for vec in (n, t, b):
            vecs.append(np.array([dm.value(c) for c in vec]))
            jacs.append(np.array([_tangent_row(c, 3) for c in vec]))
        return FrameJet(vecs[0], vecs[1], vecs[2],
                        jacs[0], jacs[1], jacs[2])

    # The raw field is looked up at each call, so a wrapped instance
    # attribute sees every probe.
    def triple(p):
        return frame_field.raw(p[0], p[1], p[2])

    n, t, b = np.asarray(_probe(triple, tuple(r)), dtype=float)
    jn, jt, jb = jacobian(triple, r, cfg)
    return FrameJet(n, t, b, jn, jt, jb)
