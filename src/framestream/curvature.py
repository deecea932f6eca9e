"""Integral-curve curvature, shape operators, foliation defects,
curve integration, and parallel-transport holonomy."""
from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

from .derivatives import (DEFAULT_CFG, DiffConfig, FrameScalars, _dot,
                          _probe, directional_derivative, frame_jet,
                          frame_scalars, jacobian, twist)
from .errors import (DegenerateTangent, EvaluationFailure, LeftDomain,
                     NotOnLeaf, NotOrthonormal, NotUnitField, OutOfRange)
from .frames import (float_3vector, float_array, float_scalar, float_vector,
                     instance_of, on_stack, raw_components, raw_parts)


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
            if not abs(float(u @ v)) <= 1e-10:
                raise NotOrthonormal("shape operator basis not orthogonal")
        for u in (self.basis1, self.basis2, self.normal):
            if not abs(float(u @ u) - 1.0) <= 1e-10:
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


def _vector_value(out, r) -> np.ndarray:
    """A field's value ``out`` at the point r as a float 3-vector, or
    EvaluationFailure naming r where it is none, as raw_components
    fails a frame raw."""
    try:
        v = np.asarray(out, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EvaluationFailure(f"field returned no array of numbers at "
                                f"probe {tuple(r.tolist())}") from exc
    if v.shape != (3,):
        raise EvaluationFailure(f"field returned a value of shape {v.shape}, "
                                f"not a 3-vector, at probe "
                                f"{tuple(r.tolist())}")
    return v


def _unit_value(field, r, label: str) -> np.ndarray:
    """The value of a unit field at the point r, through _probe on Python
    floats; NotUnitField, naming the field ``label``, where it misses
    unit length by more than 2e-6."""
    v = _vector_value(_probe(field, tuple(r.tolist())), r)
    if not abs(float(v @ v) - 1.0) <= 2e-6:
        raise NotUnitField(
            f"|{label}| = {math.sqrt(v @ v):.8f} at {tuple(r.tolist())}")
    return v


def integral_curve_curvature(field, r, cfg: DiffConfig = DEFAULT_CFG):
    """Curvature vector -grad_u u of the integral curve of unit field u."""
    r = float_3vector(r, "point")
    return -directional_derivative(field, r, _unit_value(field, r, "u"), cfg)


def curvature_from_parametrization(gamma_prime, gamma_double_prime):
    """Arc-length-corrected curvature vector of a parametrized curve.

    The magnitude is |g' x g''| / |g'|^3.  The direction is the
    component of -g'' perpendicular to g'; for curves with g'' already
    orthogonal to g' (arc-length or circular parametrizations) this is
    exactly -g''/|g''|.
    """
    gp = float_3vector(gamma_prime, "gamma_prime")
    gpp = float_3vector(gamma_double_prime, "gamma_double_prime")
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
    r = float_3vector(r, "point")
    # Each field sees the point as Python floats, as the fd probes do.
    p = tuple(r.tolist())
    normal, b1, b2 = (_vector_value(_probe(f, p), r) for f in
                      (normal_field, basis1_field, basis2_field))
    jn = jacobian(normal_field, r, cfg)
    m = np.array([[b1 @ (jn @ b1), b1 @ (jn @ b2)],
                  [b2 @ (jn @ b1), b2 @ (jn @ b2)]])
    return ShapeOperator2x2(matrix=m, basis1=b1, basis2=b2, normal=normal)


def normal_curvature(shape: ShapeOperator2x2, omega: float) -> float:
    """Quadratic form of the shape operator in the azimuth direction:
    FrameScalars.normal_curvature of its entries.  OutOfRange where
    shape is not a ShapeOperator2x2, or omega is not a finite number."""
    instance_of(shape, ShapeOperator2x2, "shape")
    omega = float_scalar(omega, "omega")
    if not math.isfinite(omega):
        raise OutOfRange(f"omega = {omega} is not finite")
    (s_tt, s_tb), (s_bt, s_bb) = shape.matrix.tolist()
    leaf = FrameScalars(s_tt, s_tb, s_bt, s_bb, *[0.0] * 5)
    return leaf.normal_curvature(math.cos(omega), math.sin(omega))


def foliation_defect(field, r, cfg: DiffConfig = DEFAULT_CFG) -> float:
    """V . rot V; zero certifies local integrability of the V-planes."""
    r = float_3vector(r, "point")
    return twist(_unit_value(field, r, "V"), jacobian(field, r, cfg))


def winding_term(frame_field, r, cfg: DiffConfig = DEFAULT_CFG) -> float:
    """t . grad_n b, the rotation rate of (t, b) about n along its curve."""
    r = float_3vector(r, "point")
    jet = frame_jet(frame_field, r, cfg)
    w = frame_scalars(jet).winding
    w_anti = float(jet.b @ (jet.jt @ jet.n))
    if not abs(w + w_anti) <= 1e-8:
        raise NotOrthonormal(
            f"winding antisymmetry violated: t.grad_n b + b.grad_n t = "
            f"{w + w_anti:.3e} at {tuple(r.tolist())}")
    return w


def integrate_curve(field, r0, tau_span, steps: int):
    """Fixed-step RK4 samples of the integral curve of ``field`` from r0
    over the pair tau_span, in an integer number of steps, at least 16;
    OutOfRange naming steps where no array holds that many samples."""
    try:
        steps = operator.index(steps)
    except TypeError:
        raise OutOfRange(f"steps must be an integer, not {steps!r}") from None
    if steps < 16:
        raise OutOfRange("need at least 16 steps")
    span = float_array(tau_span, "tau_span")
    if span.shape != (2,):
        raise OutOfRange(f"tau_span must be a pair, not of shape {span.shape}")
    t0, t1 = span.tolist()
    h = (t1 - t0) / steps
    try:
        out = np.empty((steps + 1, 3))
    except (ValueError, MemoryError):  # numpy refuses the shape or size
        raise OutOfRange(f"steps = {steps} asks for more samples than an "
                         f"array can hold") from None
    r = float_3vector(r0, "start point").copy()
    out[0] = r

    def f(p):
        try:
            out = field(tuple(p))
        except Exception as exc:
            raise LeftDomain(
                f"field undefined near {tuple(p.tolist())}") from exc
        return _vector_value(out, p)

    for i in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = r
    return out


def _loop_normals(frame_field, pts):
    """The frame normal at each row of pts, from one raw call through
    on_stack, or row by row on Python floats; a point where the frame is
    undefined raises LeftDomain naming it."""
    def at_row(p):
        p = tuple(p.tolist())
        try:
            return raw_components(frame_field, p)[:3]
        except Exception as exc:
            raise LeftDomain(f"frame undefined at loop point {p}") from exc

    return np.column_stack(on_stack(
        lambda: raw_parts(frame_field, pts)[0][:, :3].T, at_row, pts))


def _tangential(vecs, normals):
    """Rows of ``vecs`` projected onto the planes normal to ``normals``."""
    return vecs - _dot(vecs, normals)[:, None] * normals


def _col_dot(u, v):
    """u . v for each column of (3, m) arrays, in contiguous column
    arithmetic: no per-item kernel, so not _dot's bits."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _col_cross(u, v):
    """u x v for each column of (3, m) arrays, as a (3, m) array, in the
    operations of np.cross on rows, whose bits it has."""
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _step_rotations(prev, nxt):
    """The minimal rotations R_k taking prev[k] to nxt[k], rows of (m, 3)
    arrays: R = I + [a]x + [a]x^2 / (1 + c), with a = prev x nxt and
    c = prev . nxt."""
    # a = prev x nxt is freed before the square allocates its (m, 3, 3)
    # block, and the sums run in place: I + [a]x rounds as [a]x + I.
    ax = _skew(_col_cross(prev.T, nxt.T))
    square = ax @ ax
    square /= (1.0 + _dot(prev, nxt))[:, None, None]
    ax += np.eye(3)
    ax += square
    return ax


def _skew(a):
    """The matrices [a]x of the columns of the (3, m) array a, whose
    product with v is a x v."""
    a0, a1, a2 = a
    ax = np.zeros((len(a0), 3, 3))
    ax[:, 2, 1], ax[:, 0, 2], ax[:, 1, 0] = a0, a1, a2
    # One negated column at a time: negating all three at once raised
    # the peak RSS of a verify pass by about 0.15 MB.
    ax[:, 1, 2] = -a0
    ax[:, 2, 0] = -a1
    ax[:, 0, 1] = -a2
    return ax


def _carried(rot, v):
    """R_j @ v[:, j] for each column j of the (3, k) array v, where rot
    holds the entries of R_j in row-major order in its 9 rows, (9, k)."""
    return rot[0::3] * v[0] + rot[1::3] * v[1] + rot[2::3] * v[2]


def _composed(rot):
    """The product rot[-1] ... rot[0], in about len(rot) matmuls.

    The factors pair from the end, (rot[-1] rot[-2]) (rot[-3] rot[-4])
    and so on, level by level, with an odd earliest factor carried up a
    level: the association of the last product of a Hillis-Steele
    prefix scan, whose bits the loop angles were pinned with."""
    rot = rot[::-1]
    while len(rot) > 1:
        even = len(rot) & -2
        rot = np.concatenate([rot[0:even:2] @ rot[1:even:2], rot[even:]])
    return rot[0]


def parallel_transport_holonomy(frame_field, loop, v0) -> float:
    """Net rotation of v0 parallel-transported once around a closed loop
    on a leaf of the n-foliation, full turns included.

    Each step applies the minimal rotation aligning consecutive
    normals (second-order accurate; plain tangent-plane projection is
    only first order except at special latitudes).  The fractional
    angle comes from the start/end comparison in the fixed basis
    (v0, n x v0); the integer turn count from the transport itself,
    2 pi - (integral of kappa_g ds).  That is the integral of K dA over
    the region on the loop's left about n wherever it is a disk: on a
    sphere the left cap, 2 pi (1 + cos theta) for a reversed latitude
    loop, and 4 pi for a clockwise circle in a plane.  A step back and
    forth changes no angle.

    Only the step rotations (their ``ax @ ax`` and ``_dot(prev, nxt)``)
    and their product (_composed) run per-item BLAS kernels: their bits
    are the angle's.  The drift that counts the turns reaches the angle
    only through the rounding of a number of turns, and the checks on
    the loop and its normals only compare against bounds, so those run
    as contiguous arithmetic on the (3, m) coordinate columns.  The m
    step rotations form one stack, their product takes about m matmuls
    and the drift reads each step alone, so the cost is O(m) numpy work
    plus one ``raw`` frame call on the loop's coordinate arrays (one per
    vertex for a raw that rejects arrays).
    """
    pts = float_array(loop, "loop")
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
        raise OutOfRange("loop must be an (N,3) array with N >= 8")
    cols = np.ascontiguousarray(pts.T)
    not_finite = np.flatnonzero(~np.isfinite(cols).all(axis=0))
    if not_finite.size:
        i = not_finite[0]
        raise LeftDomain(f"loop vertex {i} is not finite: "
                         f"{tuple(pts[i].tolist())}")
    v = float_vector(v0, "v0")
    top, bottom = cols.max(axis=1), cols.min(axis=1)
    span = max(float(top.max()), -float(bottom.min()))
    # The loop is open when its ends are farther apart than 1e-9 of its
    # extent, the largest side of its bounding box; its m vertices are
    # then all of pts, and otherwise all but the last, which closes it.
    # hypot, unlike a norm through squares, does not overflow.
    extent = float((top - bottom).max())
    m = len(pts) - 1
    if math.hypot(*(cols[:, 0] - cols[:, -1]).tolist()) > 1e-9 * extent:
        m += 1
    normals = _loop_normals(frame_field, cols[:, :m].T)
    ncol = normals.T
    not_unit = np.flatnonzero(~(np.abs(_col_dot(ncol, ncol) - 1.0)
                                <= 1e-8))  # nan fails the test too
    if not_unit.size:
        i = not_unit[0]
        raise LeftDomain(f"frame normal at loop vertex {i} is not a finite "
                         f"unit vector: {tuple(pts[i].tolist())}")
    if extent == 0.0:
        raise OutOfRange(f"loop has no extent: all {m + 1} vertices are "
                         f"{tuple(pts[0].tolist())}")

    # Tangents enter only through their directions, so they come from
    # the loop scaled by a power of two to a largest coordinate near 1:
    # exact, while the squares and cross products of far or tiny loops
    # neither overflow nor underflow.
    x = np.ldexp(cols[:, :m], -math.frexp(span)[1])

    # Central-difference tangents, vertex i from x[:, i-1] to x[:, i+1]
    # (cyclic); they serve the tangency precondition and the drift.
    tang = np.roll(x, -1, axis=1) - np.roll(x, 1, axis=1)
    along_n = _col_dot(ncol, tang)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs(along_n) / np.sqrt(_col_dot(tang, tang))
    off_leaf = np.flatnonzero(slope > 1e-6)  # a zero tangent gives nan
    if off_leaf.size:
        raise NotOnLeaf(
            f"loop tangent leaves the leaf at index {off_leaf[0]}")

    n0 = normals[0]
    v = v - float(v @ n0) * n0
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        raise NotOnLeaf("v0 has no tangential part at the loop start")
    v_start = v / nv
    w_start = np.cross(n0, v_start)

    # Step k = 1..m rotates normals[k-1] onto normals[k % m] by rot[k-1].
    rot = _step_rotations(normals, np.roll(normals, -1, axis=0))

    # Adapted-frame drift, used only for the integer turn count: the
    # change of the angle of the transported vector against the projected
    # tangent u over vertices 0..m, that is -(integral of kappa_g ds),
    # skipping vertices where u vanishes (the repeated vertex of a step
    # back and forth).  Rotations keep angles, so from one kept vertex to
    # the next the change is the angle of the earlier u, carried through
    # the steps between them, against the later u.  The angle does not
    # depend on the length of u, so u is not normalized.
    u = tang - along_n * ncol
    defined = _col_dot(u, u) != 0.0
    kept = np.flatnonzero(np.append(defined, defined[0]))  # m is 0 again
    src, dst = kept[:-1], kept[1:]
    gaps = dst - src
    entries = rot.reshape(m, 9).T
    carried = _carried(entries, u)[:, src]
    for gap in range(1, int(np.max(gaps, initial=1))):
        far = np.flatnonzero(gaps > gap)
        carried[:, far] = _carried(entries[:, src[far] + gap],
                                   carried[:, far])
    dst %= m
    drift = float(np.sum(np.arctan2(
        _col_dot(carried, _col_cross(ncol[:, dst], u[:, dst])),
        _col_dot(carried, u[:, dst]))))

    # v0 carried once around, projected onto the start plane twice (the
    # second time as a 3-vector), in the operations that fixed the bits
    # of the pinned angles.
    v_end = _tangential((_composed(rot) @ v_start)[None], normals[:1])
    v_end = (v_end / np.linalg.norm(v_end, axis=1)[:, None])[0]
    v_end = v_end - float(v_end @ n0) * n0
    v_end = v_end / float(np.linalg.norm(v_end))
    principal = math.atan2(float(v_end @ w_start), float(v_end @ v_start))

    estimate = 2.0 * math.pi + drift
    turns = round((estimate - principal) / (2.0 * math.pi))
    return principal + 2.0 * math.pi * turns


def curvature_report(frame_field, r,
                     cfg: DiffConfig = DEFAULT_CFG) -> CurvatureReport:
    """All curvature quantities of a frame field at one point."""
    r = float_3vector(r, "point")
    jet = frame_jet(frame_field, r, cfg)
    kappa_n = -(jet.jn @ jet.n)
    kappa_t = -(jet.jt @ jet.t)
    kappa_b = -(jet.jb @ jet.b)
    for vec, kap, label in ((jet.n, kappa_n, "n"), (jet.t, kappa_t, "t"),
                            (jet.b, kappa_b, "b")):
        overlap = float(vec @ kap)
        if not abs(overlap) <= 1e-8:
            cause = (f"{label} . kappa_{label} = {overlap:.3e} exceeds 1e-08,"
                     f" so the frame is not orthonormal"
                     if math.isfinite(overlap) else
                     f"{label} . kappa_{label} is {overlap}: the frame or "
                     f"its Jacobian is not finite")
            raise EvaluationFailure(
                f"kappa_{label} not orthogonal to {label} at "
                f"{tuple(r.tolist())}: {cause}")
    k = frame_scalars(jet)
    shape_n = ShapeOperator2x2(matrix=np.array([[k.s_tt, k.s_tb],
                                                [k.s_bt, k.s_bb]]),
                               basis1=jet.t, basis2=jet.b, normal=jet.n)
    return CurvatureReport(kappa_n=kappa_n, kappa_t=kappa_t,
                           kappa_b=kappa_b, shape_n=shape_n,
                           winding=k.winding,
                           foliation_defect_n=twist(jet.n, jet.jn),
                           point=r)
