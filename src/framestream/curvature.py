"""Integral-curve curvature, shape operators, foliation defects,
curve integration, and parallel-transport holonomy."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .derivatives import (DEFAULT_CFG, DiffConfig, curl,
                          directional_derivative, frame_jet, jacobian)
from .errors import (DegenerateTangent, EvaluationFailure, LeftDomain,
                     NotOnLeaf, NotOrthonormal, NotUnitField, OutOfRange)


@dataclasses.dataclass(frozen=True)
class ShapeOperator2x2:
    """Weingarten form in an ordered orthonormal tangent basis.

    Entry (alpha, beta) is basis_alpha . grad_{basis_beta} normal.
    """

    matrix: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for u, v in ((self.basis1, self.basis2),
                     (self.basis1, self.normal),
                     (self.basis2, self.normal)):
            if abs(float(u @ v)) > 1e-10:
                raise NotOrthonormal("shape operator basis not orthogonal")
        for u in (self.basis1, self.basis2, self.normal):
            if abs(float(u @ u) - 1.0) > 1e-10:
                raise NotOrthonormal("shape operator basis not unit")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclasses.dataclass(frozen=True)
class CurvatureReport:
    """All pointwise curvature data of a frame field."""

    kappa_n: np.ndarray
    kappa_t: np.ndarray
    kappa_b: np.ndarray
    shape_n: ShapeOperator2x2
    winding: float
    foliation_defect_n: float
    point: np.ndarray


def integral_curve_curvature(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Curvature vector -grad_u u of the integral curve of unit field u."""
    r = np.asarray(r, dtype=float)
    u0 = np.asarray(field(tuple(r)), dtype=float)
    if abs(float(u0 @ u0) - 1.0) > 2e-6:
        raise NotUnitField(f"|u| = {math.sqrt(u0 @ u0):.8f} at {tuple(r)}")
    return -directional_derivative(field, r, u0, cfg)


def curvature_from_parametrization(gamma_prime, gamma_double_prime):
    """Arc-length-corrected curvature vector of a parametrized curve.

    The magnitude is |g' x g''| / |g'|^3.  The direction is the
    component of -g'' perpendicular to g'; for curves with g'' already
    orthogonal to g' (arc-length or circular parametrizations) this is
    exactly -g''/|g''|.
    """
    gp = np.asarray(gamma_prime, dtype=float)
    gpp = np.asarray(gamma_double_prime, dtype=float)
    speed2 = float(gp @ gp)
    if speed2 <= 1e-24:
        raise DegenerateTangent("curve velocity below 1e-12")
    if float(np.linalg.norm(gpp)) < 1e-14:
        return np.zeros(3)
    perp = gpp - (float(gpp @ gp) / speed2) * gp
    return -perp / speed2


def shape_operator(normal_field, basis1_field, basis2_field, r,
                   cfg: DiffConfig = DEFAULT_CFG) -> ShapeOperator2x2:
    """Weingarten form of ``normal_field`` in the given tangent basis."""
    r = np.asarray(r, dtype=float)
    p = tuple(r)
    normal = np.asarray(normal_field(p), dtype=float)
    b1 = np.asarray(basis1_field(p), dtype=float)
    b2 = np.asarray(basis2_field(p), dtype=float)
    jn = jacobian(normal_field, r, cfg)
    m = np.array([[b1 @ (jn @ b1), b1 @ (jn @ b2)],
                  [b2 @ (jn @ b1), b2 @ (jn @ b2)]])
    return ShapeOperator2x2(matrix=m, basis1=b1, basis2=b2, normal=normal)


def normal_curvature(shape: ShapeOperator2x2, omega: float) -> float:
    """Quadratic form of the shape operator in the azimuth direction."""
    d = np.array([math.cos(omega), math.sin(omega)])
    return float(d @ (shape.matrix @ d))


def foliation_defect(field, r, cfg: DiffConfig = DEFAULT_CFG) -> float:
    """V . rot V; zero certifies local integrability of the V-planes."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(field(tuple(r)), dtype=float)
    if abs(float(v @ v) - 1.0) > 2e-6:
        raise NotUnitField(f"|V| = {math.sqrt(v @ v):.8f} at {tuple(r)}")
    return float(v @ curl(field, r, cfg))


def winding_term(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> float:
    """t . grad_n b, the rotation rate of (t, b) about n along its curve."""
    jet = frame_jet(frame_field, r, cfg)
    w = float(jet.t @ (jet.jb @ jet.n))
    w_anti = float(jet.b @ (jet.jt @ jet.n))
    if not abs(w + w_anti) <= 1e-8:
        raise NotOrthonormal(
            f"winding antisymmetry violated: t.grad_n b + b.grad_n t = "
            f"{w + w_anti:.3e} at {tuple(np.asarray(r, dtype=float))}")
    return w


def integrate_curve(field, r0, tau_span, steps: int):
    """Fixed-step RK4 samples of the integral curve of ``field``."""
    if steps < 16:
        raise OutOfRange("need at least 16 steps")
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    h = (t1 - t0) / steps
    out = np.empty((steps + 1, 3))
    r = np.asarray(r0, dtype=float).copy()
    out[0] = r

    def f(p):
        try:
            return np.asarray(field(tuple(p)), dtype=float)
        except Exception as exc:
            raise LeftDomain(f"field undefined near {tuple(p)}") from exc

    for i in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = r
    return out


def _loop_normals(frame_field, pts):
    normals = np.empty_like(pts)
    for i, p in enumerate(pts.tolist()):
        try:
            normals[i] = frame_field.raw(*p)[0]
        except Exception as exc:
            raise LeftDomain(f"frame undefined at loop point {tuple(p)}") \
                from exc
    return normals


def _dot(a, b):
    """Row-wise dot products of two (m,3) arrays."""
    return np.einsum("ij,ij->i", a, b)


def _tangential(vecs, normals):
    """Rows of ``vecs`` projected onto the planes normal to ``normals``."""
    return vecs - _dot(vecs, normals)[:, None] * normals


def _prefix_rotations(prev, nxt):
    """Inclusive products R_k ... R_1 of the minimal rotations R_k taking
    prev[k-1] to nxt[k-1]: R = I + [a]x + [a]x^2 / (1 + c), with
    a = prev x nxt and c = prev . nxt.

    The products come from a Hillis-Steele scan, ceil(log2 m) batched
    matmuls; the right side of each update is evaluated before it is
    stored, so the in-place slice assignment is safe.
    """
    # [a]x: row i is e_i x a.
    ax = np.cross(np.eye(3), np.cross(prev, nxt)[:, None, :])
    rot = np.eye(3) + ax + (ax @ ax) / (1.0 + _dot(prev, nxt))[:, None, None]
    k = 1
    while k < len(rot):
        rot[k:] = rot[k:] @ rot[:-k]
        k *= 2
    return rot


def parallel_transport_holonomy(frame_field, loop, v0) -> float:
    """Net rotation of v0 parallel-transported once around a closed loop
    on a leaf of the n-foliation, full turns included.

    Each step applies the minimal rotation aligning consecutive
    normals (second-order accurate; plain tangent-plane projection is
    only first order except at special latitudes).  The fractional
    angle comes from the start/end comparison in the fixed basis
    (v0, n x v0); the integer turn count comes from a discrete
    Gauss-Bonnet estimate.  For loops whose turning sum cannot resolve
    the orientation (geodesic loops such as a great circle), the
    positive orientation is assumed.

    The step rotations are composed by a prefix scan, so the cost is
    O(m) numpy work plus one ``raw`` frame call per loop vertex.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
        raise OutOfRange("loop must be an (N,3) array with N >= 8")
    if float(np.linalg.norm(pts[0] - pts[-1])) > 1e-9:
        pts = np.vstack([pts, pts[0]])
    m = pts.shape[0] - 1  # closed: pts[m] == pts[0]
    normals = _loop_normals(frame_field, pts[:m])

    # Central-difference tangents, vertex i from pts[i-1] to pts[i+1]
    # (cyclic); they serve the tangency precondition and adapted angles.
    ahead = np.roll(pts[:m], -1, axis=0)
    tang = ahead - np.roll(pts[:m], 1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs(_dot(normals, tang)) / np.linalg.norm(tang, axis=1)
    off_leaf = np.flatnonzero(slope > 1e-6)  # a zero tangent gives nan
    if off_leaf.size:
        raise NotOnLeaf(
            f"loop tangent leaves the leaf at index {off_leaf[0]}")

    n0 = normals[0]
    v = np.asarray(v0, dtype=float)
    v = v - float(v @ n0) * n0
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        raise NotOnLeaf("v0 has no tangential part at the loop start")
    v_start = v / nv
    w_start = np.cross(n0, v_start)

    # Step i = 1..m rotates normals[i-1] onto normals[i % m]; vecs[i-1]
    # is v0 carried through step i.
    n_next = np.roll(normals, -1, axis=0)
    vecs = _prefix_rotations(normals, n_next) @ v_start
    vecs = _tangential(vecs, n_next)
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]

    # Adapted-frame drift, used only for the integer turn count: the
    # angle of the transported vector against the projected tangent at
    # vertices 0..m, skipping vertices where that tangent vanishes.  The
    # angle does not depend on the length of u, so u is not normalized.
    u = _tangential(tang, normals)
    defined = np.linalg.norm(u, axis=1) != 0.0
    idx = np.arange(m + 1) % m
    carried = np.vstack([v_start, vecs])
    angles = np.arctan2(_dot(carried, np.cross(normals[idx], u[idx])),
                        _dot(carried, u[idx]))[defined[idx]]
    d = np.diff(angles)
    drift = float(np.sum(np.arctan2(np.sin(d), np.cos(d))))

    # Discrete Gauss-Bonnet turning at vertices 1..m.
    e_in = _tangential(np.diff(pts, axis=0), n_next)
    e_out = _tangential(np.roll(ahead - pts[:m], -1, axis=0), n_next)
    turning = float(np.sum(np.arctan2(_dot(np.cross(e_in, e_out), n_next),
                                      _dot(e_in, e_out))))

    v_end = vecs[-1] - float(vecs[-1] @ n0) * n0
    v_end = v_end / float(np.linalg.norm(v_end))
    principal = math.atan2(float(v_end @ w_start), float(v_end @ v_start))

    orientation = 1.0 if turning > -1.0 else -1.0
    estimate = 2.0 * math.pi * orientation + drift
    turns = round((estimate - principal) / (2.0 * math.pi))
    return principal + 2.0 * math.pi * turns


def curvature_report(frame_field, r,
                     cfg: DiffConfig = DEFAULT_CFG) -> CurvatureReport:
    """All curvature quantities of a frame field at one point."""
    r = np.asarray(r, dtype=float)
    jet = frame_jet(frame_field, r, cfg)
    kappa_n = -(jet.jn @ jet.n)
    kappa_t = -(jet.jt @ jet.t)
    kappa_b = -(jet.jb @ jet.b)
    for vec, kap, label in ((jet.n, kappa_n, "n"), (jet.t, kappa_t, "t"),
                            (jet.b, kappa_b, "b")):
        if abs(float(vec @ kap)) > 1e-8:
            raise EvaluationFailure(
                f"kappa_{label} not orthogonal to {label}")
    m = np.array([[jet.t @ (jet.jn @ jet.t), jet.t @ (jet.jn @ jet.b)],
                  [jet.b @ (jet.jn @ jet.t), jet.b @ (jet.jn @ jet.b)]])
    shape_n = ShapeOperator2x2(matrix=m, basis1=jet.t, basis2=jet.b,
                               normal=jet.n)
    winding = float(jet.t @ (jet.jb @ jet.n))
    defect = float(jet.n @ np.array([jet.jn[2, 1] - jet.jn[1, 2],
                                     jet.jn[0, 2] - jet.jn[2, 0],
                                     jet.jn[1, 0] - jet.jn[0, 1]]))
    return CurvatureReport(kappa_n=kappa_n, kappa_t=kappa_t,
                           kappa_b=kappa_b, shape_n=shape_n,
                           winding=winding, foliation_defect_n=defect,
                           point=r)
