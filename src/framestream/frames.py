"""Orthonormal frame fields (n, t, b) and the (mu, omega) direction chart.

Positions are Cartesian.  Frame fields are pure callables on scalar
triples so the dual-number engine can push tangents straight through
them; the built-in ones also take equal-length arrays (or array Duals)
for many points at once.  The ``eval`` wrapper validates and returns
numpy vectors.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import warnings
from typing import Callable

import numpy as np

from . import dual as dm
from .dual import value
from .errors import (DegeneratePoint, EvaluationFailure, NotOrthonormal,
                     OutOfRange, ParallelInput, PolarDirection)

_STRICT_TOL = 1e-12
_LOOSE_TOL = 1e-8


def any_true(flags) -> bool:
    """True if a comparison of floats holds, or, for an array of
    comparisons, if any entry does."""
    return flags if flags.__class__ is bool else bool(flags.any())


def all_true(flags) -> bool:
    """True if a comparison of floats holds, or, for an array of
    comparisons, if every entry does."""
    return flags if flags.__class__ is bool else bool(flags.all())


def frame_defect(n, t, b, tol: float):
    """The message of the first orthonormality test that the triple
    fails, or None: each vector finite and unit within 2 tol, the three
    orthogonal and b = n x t within tol.  n, t and b are 3-sequences of
    Python floats (one frame) or of arrays (the columns of a stack of
    frames, which fails a test where any of its frames does)."""
    for (x, y, z), label in ((n, "n"), (t, "t"), (b, "b")):
        # x - x is 0.0 for a finite x and NaN for an inf or a NaN.
        if any_true((x - x) + (y - y) + (z - z) != 0.0):
            return f"{label} must be a finite 3-vector"
        if any_true(abs(x * x + y * y + z * z - 1.0) > 2.0 * tol):
            return f"{label} is not unit within {tol}"
    (n0, n1, n2), (t0, t1, t2), (b0, b1, b2) = n, t, b
    if any_true((abs(n0 * t0 + n1 * t1 + n2 * t2) > tol)
                | (abs(n0 * b0 + n1 * b1 + n2 * b2) > tol)
                | (abs(t0 * b0 + t1 * b1 + t2 * b2) > tol)):
        return f"frame not orthogonal within {tol}"
    if any_true((abs(n1 * t2 - n2 * t1 - b0) > tol)
                | (abs(n2 * t0 - n0 * t2 - b1) > tol)
                | (abs(n0 * t1 - n1 * t0 - b2) > tol)):
        return f"frame not right-handed within {tol}"
    return None


class FramePoint:
    """Right-handed orthonormal triple at one point.

    Raises NotOrthonormal (a ValueError) with the message of
    frame_defect when a vector is not a finite 3-vector, or the vectors
    miss unit norm, orthogonality, or b = n x t beyond ``tol``.
    """

    __slots__ = ("n", "t", "b")

    def __init__(self, n, t, b, tol: float = _STRICT_TOL):
        n = np.asarray(n, dtype=float)
        t = np.asarray(t, dtype=float)
        b = np.asarray(b, dtype=float)
        # The test runs on Python floats: for one 3-vector triple it
        # costs a few microseconds, where numpy dot/cross calls cost ~70.
        # A vector of another shape fails it as NaNs do, at its turn.
        bad = (math.nan,) * 3
        defect = frame_defect(n.tolist() if n.shape == (3,) else bad,
                              t.tolist() if t.shape == (3,) else bad,
                              b.tolist() if b.shape == (3,) else bad, tol)
        if defect is not None:
            raise NotOrthonormal(defect)
        self.n = n
        self.t = t
        self.b = b

    @classmethod
    def loose(cls, n, t, b) -> "FramePoint":
        """Constructor variant with 1e-8 tolerance for numerically
        orthonormalized inputs."""
        return cls(n, t, b, tol=_LOOSE_TOL)

    def __repr__(self):
        return f"FramePoint(n={self.n}, t={self.t}, b={self.b})"


def loose_frames_ok(n, t, b) -> bool:
    """True if FramePoint.loose accepts (n[i], t[i], b[i]) for every
    row i of the (N, 3) stacks: frame_defect on all rows at once."""
    # Python floats overflow to inf and make nan without a flag.
    with np.errstate(over="ignore", invalid="ignore"):
        return frame_defect(n.T, t.T, b.T, _LOOSE_TOL) is None


@dataclasses.dataclass(frozen=True)
class AngularPoint:
    """Direction coordinates relative to a frame: mu = Omega.n, omega
    the azimuth of the tangential part measured from t, in [0, 2pi)."""

    mu: float
    omega: float
    frame: FramePoint


class FrameField:
    """A frame field: raw scalar-level callable plus metadata.

    ``raw(x, y, z)`` takes float or Dual scalars and returns three
    3-tuples (n, t, b).  Batched callers may pass equal-length arrays
    (or array Duals) instead; a raw that cannot take them raises, and
    the caller then evaluates it point by point.  ``eval`` validates
    and wraps into FramePoint.
    """

    def __init__(self, raw: Callable, name: str, homothetic: bool = False):
        self.raw = raw
        self.name = name
        self.homothetic = homothetic
        self.n_field = lambda p: raw(p[0], p[1], p[2])[0]
        self.t_field = lambda p: raw(p[0], p[1], p[2])[1]
        self.b_field = lambda p: raw(p[0], p[1], p[2])[2]

    def eval(self, r) -> FramePoint:
        x, y, z = (float(r[0]), float(r[1]), float(r[2]))
        n, t, b = self.raw(x, y, z)
        return FramePoint(n, t, b)

    def __call__(self, r) -> FramePoint:
        return self.eval(r)

    def __repr__(self):
        return f"FrameField({self.name!r}, homothetic={self.homothetic})"


def float_array(x, what: str) -> np.ndarray:
    """x as a float ndarray, or OutOfRange naming ``what`` where numpy
    cannot convert it (a string entry, rows of unequal length)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"{what} must be an array of numbers: {exc}") from exc


def float_angles(mu, omega) -> tuple:
    """(mu, omega) as Python floats, or OutOfRange where one is not a
    number, or where omega is infinite or NaN and so has no cosine."""
    try:
        mu, omega = float(mu), float(omega)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"mu and omega must be numbers: {exc}") from exc
    if not math.isfinite(omega):
        raise OutOfRange(f"omega = {omega} is not finite")
    return mu, omega


def _each(fn, *args):
    """fn of floats at floats, or at each entry of equal-length arrays,
    so that each entry gets the bits of the float call (numpy's own math
    functions may round otherwise)."""
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


@contextlib.contextmanager
def array_attempt():
    """Context of a call on arrays that is replayed point by point when
    it raises: every floating-point overflow, division by zero, invalid
    operation and warning in it raises, where float arithmetic might
    have raised or might not."""
    with np.errstate(over="raise", divide="raise", invalid="raise"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def on_stack(array_call, replay, *inputs):
    """array_call() inside array_attempt, or replay() where it raises or
    where an entry of the input arrays is not finite: the one policy of
    every stacked evaluation, whose replay goes point by point."""
    # Non-finite inputs go one by one: array arithmetic on them raises
    # no flag where the float operations of a raw might.
    if all(np.isfinite(a).all() for a in inputs):
        try:
            with array_attempt():
                return array_call()
        except Exception:  # replayed below, point by point
            pass
    return replay()


def raw_components(frame_field, p) -> tuple:
    """The nine components of the frame's raw at probe p, flat in the
    order n, t, b: flat sequences convert to arrays faster than nested
    ones."""
    # The raw field is looked up at each call, so a wrapped instance
    # attribute sees every probe; a raw without a triple fails here.
    n, t, b = frame_field.raw(p[0], p[1], p[2])
    if len(n) != 3 or len(t) != 3 or len(b) != 3:
        raise EvaluationFailure(
            f"field returned vectors of lengths ({len(n)}, {len(t)}, "
            f"{len(b)}), not 3, at probe {tuple(map(value, p))}")
    return (*n, *t, *b)


def raw_parts(frame_field, pts, dual=False) -> tuple:
    """The raw at the rows of an (N, 3) array pts, from one call on
    their coordinate arrays (array Duals seeded with the identity when
    dual): the (N, 9) values of the nine components and their (N, 9, 3)
    tangents, zero for a float component.  Raises, for a replay, on a
    component that is neither a float nor an array of N entries."""
    count = len(pts)
    cols = dm.seed_gradient(pts) if dual else np.ascontiguousarray(pts.T)
    vals, tans = np.empty((count, 9)), np.zeros((count, 9, 3))
    for k, c in enumerate(raw_components(frame_field, cols)):
        parts = (c.val, c.e0, c.e1, c.e2) if isinstance(c, dm.Dual) else (c,)
        if any(np.shape(part) not in ((), (count,)) for part in parts):
            raise ValueError("component of another length")
        vals[:, k] = parts[0]
        for j, part in enumerate(parts[1:]):
            tans[:, k, j] = part
    return vals, tans


# ---------------------------------------------------------------------------
# Closed-form frame identifiers.

@dataclasses.dataclass(frozen=True)
class CylindricalI:
    """Planar leaves: n = e_z, t radial, b azimuthal."""


@dataclasses.dataclass(frozen=True)
class CylindricalII:
    """Cylinder leaves: n radial, t azimuthal, b = e_z."""


@dataclasses.dataclass(frozen=True)
class Sphere:
    """Sphere leaves: n radial, t polar, b azimuthal."""


@dataclasses.dataclass(frozen=True)
class Ellipsoid:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise OutOfRange("ellipsoid semi-axes must be positive")


@dataclasses.dataclass(frozen=True)
class Paraboloid:
    """Graph surface z = a x^2 + b y^2."""

    a: float
    b: float

    def as_graph(self) -> "Graph":
        """The same surface as a Graph id."""
        a, b = self.a, self.b
        return Graph(f=lambda x, y: a * x * x + b * y * y,
                     f_x=lambda x, y: 2.0 * a * x,
                     f_y=lambda x, y: 2.0 * b * y,
                     f_xx=lambda x, y: 2.0 * a,
                     f_xy=lambda x, y: 0.0,
                     f_yy=lambda x, y: 2.0 * b)


@dataclasses.dataclass(frozen=True)
class Graph:
    """Graph surface z = f(x, y) with all first and second partials."""

    f: Callable
    f_x: Callable
    f_y: Callable
    f_xx: Callable
    f_xy: Callable
    f_yy: Callable

    def __post_init__(self):
        for fn in (self.f, self.f_x, self.f_y, self.f_xx, self.f_xy,
                   self.f_yy):
            if not callable(fn):
                raise OutOfRange("Graph requires six callables")


@dataclasses.dataclass(frozen=True)
class Constant:
    """Canonical constant frame n = e_z, t = e_x, b = e_y."""


def default_graph_id() -> Graph:
    """The reference graph surface f = sin(x) + y^2/2."""
    return Graph(f=lambda x, y: math.sin(x) + 0.5 * y * y,
                 f_x=lambda x, y: math.cos(x),
                 f_y=lambda x, y: y,
                 f_xx=lambda x, y: -math.sin(x),
                 f_xy=lambda x, y: 0.0,
                 f_yy=lambda x, y: 1.0)


ClosedFormId = object  # union of the dataclasses above


# ---------------------------------------------------------------------------
# Raw frame implementations (scalar level, Dual-compatible; every guard
# also tests each entry of array arguments).

# Squared distances below this tiny normal float count as the singular
# locus itself: a point is rejected only when its coordinates are within
# about 1e-140 of it, and the relative pole tests (1e-20 * r^2) stay
# normal floats.
_SINGULAR_R2 = 1e-280


def _raw_constant(x, y, z):
    return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


def _raw_cyl1(x, y, z):
    rho2 = x * x + y * y
    if dm.below(rho2, _SINGULAR_R2):
        raise DegeneratePoint("cylindrical frame undefined on the z-axis")
    inv = 1.0 / dm.sqrt(rho2)
    return ((0.0, 0.0, 1.0),
            (x * inv, y * inv, 0.0),
            (-y * inv, x * inv, 0.0))


def _raw_cyl2(x, y, z):
    e_z, radial, azimuthal = _raw_cyl1(x, y, z)
    return radial, azimuthal, e_z


def _raw_sphere(x, y, z):
    r2 = x * x + y * y + z * z
    if dm.below(r2, _SINGULAR_R2):
        raise DegeneratePoint("sphere frame undefined at the origin")
    rxy2 = x * x + y * y
    if dm.below(rxy2, 1e-20 * value(r2)):
        raise DegeneratePoint("sphere frame undefined at the poles")
    rho = dm.sqrt(r2)
    rxy = dm.sqrt(rxy2)
    inv_rho = 1.0 / rho
    inv_xy = 1.0 / rxy
    n = (x * inv_rho, y * inv_rho, z * inv_rho)
    t = (x * z * inv_rho * inv_xy, y * z * inv_rho * inv_xy, -rxy * inv_rho)
    b = (-y * inv_xy, x * inv_xy, 0.0)
    return n, t, b


def _gram_schmidt_raw(t, btil):
    c = dm.dot3(t, btil)
    w = (btil[0] - c * t[0], btil[1] - c * t[1], btil[2] - c * t[2])
    return dm.normalize3(w)


def _make_raw_ellipsoid(a: float, b: float, c: float):
    def raw(x, y, z):
        px, py, pz = x / a, y / b, z / c
        rho2 = px * px + py * py + pz * pz
        if dm.below(rho2, _SINGULAR_R2):
            raise DegeneratePoint("ellipsoid frame undefined at the origin")
        rho = dm.sqrt(rho2)
        st2 = (px * px + py * py) / rho2
        if dm.below(st2, 1e-24):
            raise DegeneratePoint("ellipsoid frame undefined at the poles")
        st = dm.sqrt(st2)
        ct = pz / rho
        inv_sxy = 1.0 / (rho * st)
        cphi = px * inv_sxy
        sphi = py * inv_sxy
        n = dm.normalize3((x / (a * a), y / (b * b), z / (c * c)))
        t = dm.normalize3((a * cphi * ct, b * sphi * ct, -c * st))
        btil = dm.normalize3((-a * sphi, b * cphi, 0.0))
        return n, t, _gram_schmidt_raw(t, btil)
    return raw


def _on_arrays(fn, xv, yv):
    """fn, a callable of plain floats, at equal-length arrays: one call
    on the arrays when fn takes them and returns a scalar or a matching
    array, else one float call per element."""
    xv, yv = np.broadcast_arrays(xv, yv)
    try:
        out = np.asarray(fn(xv, yv), dtype=float)
    except Exception:  # a math function, say, rejects arrays
        out = None
    if out is not None and out.shape in ((), xv.shape):
        return float(out) if out.shape == () else out
    return np.array([float(fn(a, b))
                     for a, b in zip(xv.tolist(), yv.tolist())])


def _lift_scalar(fn, d_dx, d_dy):
    """Lift a plain-float callable of (x, y) to floats, arrays or Duals
    using its supplied first partials for the chain rule."""
    def lifted(x, y):
        xv, yv = value(x), value(y)
        arrays = isinstance(xv, np.ndarray) or isinstance(yv, np.ndarray)
        v = _on_arrays(fn, xv, yv) if arrays else float(fn(xv, yv))
        if not isinstance(x, dm.Dual) and not isinstance(y, dm.Dual):
            return v
        x0, x1, x2 = dm.tangent(x)
        y0, y1, y2 = dm.tangent(y)
        if arrays:
            px, py = _on_arrays(d_dx, xv, yv), _on_arrays(d_dy, xv, yv)
        else:
            px, py = float(d_dx(xv, yv)), float(d_dy(xv, yv))
        return dm.Dual(v, px * x0 + py * y0, px * x1 + py * y1,
                       px * x2 + py * y2)
    return lifted


def _raw_graph(g: Graph):
    gx = _lift_scalar(g.f_x, g.f_xx, g.f_xy)
    gy = _lift_scalar(g.f_y, g.f_xy, g.f_yy)

    def raw(x, y, z):
        fx = gx(x, y)
        fy = gy(x, y)
        n = dm.normalize3((-fx, -fy, 1.0))
        t = dm.normalize3((1.0, 0.0, fx))
        btil = dm.normalize3((0.0, 1.0, fy))
        return n, t, _gram_schmidt_raw(t, btil)
    return raw


# ---------------------------------------------------------------------------
# Boxes of draws and placements of a sampled point in a frame's comfort
# zone (see FrameSpec).  The order of the draws fixes the states that a
# seed gives.

_CYLINDER_BOX = ((0.5, 3.0), (0.0, 2.0 * math.pi), (-2.0, 2.0))
_SHELL_ANGLES = ((0.3, math.pi - 0.3), (0.0, 2.0 * math.pi))
_GRAPH_BOX = ((-1.5, 1.5), (-1.5, 1.5))


def _place_cylinder(rho, phi, z):
    return rho * math.cos(phi), rho * math.sin(phi), z


def _shell_placement(a=1.0, b=1.0, c=1.0):
    """The point scale * (a sin(theta) cos(phi), b sin(theta) sin(phi),
    c cos(theta)) of draws (scale, theta, phi); the box keeps theta
    0.3 rad clear of the poles."""
    def place(scale, theta, phi):
        return (scale * (a * math.sin(theta) * math.cos(phi)),
                scale * (b * math.sin(theta) * math.sin(phi)),
                scale * (c * math.cos(theta)))
    return place


def _graph_placement(g: Graph):
    """The point (x, y, f(x, y)) of draws (x, y), f called on floats."""
    f = g.f
    return lambda x, y: (x, y, float(f(x, y)))


# ---------------------------------------------------------------------------
# Frame registry.

@dataclasses.dataclass(frozen=True)
class FrameSpec:
    """One built-in frame.  A new frame is one row of ``BUILTIN_FRAMES``
    plus its hand-derived auxiliary scalars in the catalog's table,
    which is kept in catalog.py so that this module never imports the
    truth source.

    A sample of the frame's comfort zone is one uniform draw in each
    (low, high) range of ``box``, in that order, placed at a point by
    ``place(id)``; the placement takes the draws of one sample as
    Python floats, so its math calls give the bits of scalar code."""

    name: str            # the CLI --frame value
    default: object      # the id verify uses; the CLI's --a/--b/--c
                         # replace its fields of those names
    raw: Callable        # id -> raw(x, y, z)
    homothetic: bool     # coefficients scale as 1/|r| under r -> k r
    box: tuple           # the (low, high) range of each draw of a sample
    place: Callable      # id -> place(*draws) -> the point (x, y, z)
    conservation: tuple  # (feasible, reason) expected for the default


BUILTIN_FRAMES = {spec.name: spec for spec in (
    FrameSpec("constant", Constant(), lambda fid: _raw_constant, False,
              ((-2.0, 2.0),) * 3, lambda fid: lambda x, y, z: (x, y, z),
              (True, "Feasible")),
    FrameSpec("cylindrical-i", CylindricalI(), lambda fid: _raw_cyl1,
              True, _CYLINDER_BOX, lambda fid: _place_cylinder,
              (True, "Feasible")),
    FrameSpec("cylindrical-ii", CylindricalII(), lambda fid: _raw_cyl2,
              True, _CYLINDER_BOX, lambda fid: _place_cylinder,
              (False, "CDependsOnOmega")),
    FrameSpec("sphere", Sphere(), lambda fid: _raw_sphere, True,
              ((0.5, 3.0),) + _SHELL_ANGLES,
              lambda fid: _shell_placement(), (True, "Feasible")),
    FrameSpec("ellipsoid", Ellipsoid(2.0, 1.0, 1.0),
              lambda fid: _make_raw_ellipsoid(fid.a, fid.b, fid.c),
              True, ((0.5, 2.0),) + _SHELL_ANGLES,
              lambda fid: _shell_placement(fid.a, fid.b, fid.c),
              (False, "KappaNNonzero")),
    FrameSpec("paraboloid", Paraboloid(1.0, 2.0),
              lambda fid: _raw_graph(fid.as_graph()), False, _GRAPH_BOX,
              lambda fid: _graph_placement(fid.as_graph()),
              (False, "KappaNNonzero")),
    FrameSpec("graph", default_graph_id(), _raw_graph, False, _GRAPH_BOX,
              _graph_placement, (False, "KappaNNonzero")),
)}
_SPEC_BY_TYPE = {type(spec.default): spec for spec in BUILTIN_FRAMES.values()}


def frame_spec(fid: ClosedFormId) -> FrameSpec:
    """Registry row of a closed-form identifier."""
    spec = _SPEC_BY_TYPE.get(type(fid))
    if spec is None:
        raise OutOfRange(f"unknown frame id {fid!r}")
    return spec


def builtin_frame(fid: ClosedFormId) -> FrameField:
    """Frame field for a closed-form identifier, named after its row and
    its numeric parameters, if any."""
    spec = frame_spec(fid)
    params = [getattr(fid, f.name) for f in dataclasses.fields(fid)]
    name = spec.name
    if params and not any(callable(v) for v in params):
        name += "(" + ",".join(str(v) for v in params) + ")"
    field = FrameField(spec.raw(fid), name, homothetic=spec.homothetic)
    field.fid = fid
    return field


# ---------------------------------------------------------------------------
# Direction chart.

# Directions with 1 - mu^2 below this have no azimuth.
_POLAR_TOL = 1e-14


def check_mu_range(mu: float) -> None:
    """OutOfRange for a NaN mu or one outside [-1, 1]."""
    if not -1.0 <= mu <= 1.0:
        raise OutOfRange(f"mu = {mu} outside [-1, 1]")


def float_vector(x, what: str) -> np.ndarray:
    """x as a float 3-vector, or OutOfRange naming ``what`` where it is
    not a finite 3-vector."""
    v = float_array(x, what)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise OutOfRange(f"{what} must be a finite 3-vector")
    return v


def orthonormalize(t, b_tilde):
    """Project b_tilde orthogonal to unit t and normalize explicitly.

    The normalization divides by the Euclidean norm of the projected
    residual, not by any closed-form denominator.  OutOfRange where t or
    b_tilde is not a finite 3-vector, or t is not unit.
    """
    t = float_vector(t, "t")
    b_tilde = float_vector(b_tilde, "b_tilde")
    if abs(t @ t - 1.0) > 1e-10:
        raise OutOfRange("t must be unit")
    w = b_tilde - (t @ b_tilde) * t
    norm = float(np.linalg.norm(w))
    if norm < 1e-10:
        raise ParallelInput("b_tilde parallel to t")
    return t, w / norm


def angles_from_direction(frame: FramePoint, omega_dir) -> AngularPoint:
    """(mu, omega) of a unit direction relative to a frame; OutOfRange
    where the direction is not a finite 3-vector."""
    d = float_vector(omega_dir, "direction")
    mu = float(d @ frame.n)
    if 1.0 - mu * mu < _POLAR_TOL:
        raise PolarDirection("azimuth undefined for directions parallel to n")
    omega = float(np.arctan2(d @ frame.b, d @ frame.t))
    if omega < 0.0:
        omega += 2.0 * np.pi
    if omega >= 2.0 * np.pi:
        omega = 0.0
    return AngularPoint(mu=mu, omega=omega, frame=frame)


def direction_from_angles(frame: FramePoint, mu: float, omega: float):
    """Unit direction mu*n + sqrt(1-mu^2)(cos(omega) t + sin(omega) b);
    OutOfRange for a NaN mu or one outside [-1, 1], or from float_angles."""
    mu, omega = float_angles(mu, omega)
    check_mu_range(mu)
    s = np.sqrt(max(0.0, 1.0 - mu * mu))
    return (mu * frame.n + s * np.cos(omega) * frame.t
            + s * np.sin(omega) * frame.b)
