"""Orthonormal frame fields (n, t, b) and the (mu, omega) direction chart.

Positions are Cartesian.  Frame fields are pure callables on scalar
triples so the dual-number engine can push tangents straight through
them; the built-in ones also take equal-length arrays (or array Duals)
for many points at once.  The ``eval`` wrapper validates and returns
numpy vectors.  The direction chart (mu, omega) lives here whole: its
conversion (_angles, angle_arrays) and its domain (check_mu_range,
check_mu), which the coefficient path and the catalog share.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
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
    (n0, n1, n2), (t0, t1, t2), (b0, b1, b2) = n, t, b
    # Every test at once, as one accept: a vector that is unit within
    # 2 tol is finite, and products of such vectors cannot overflow, so
    # a triple that passes it passes each test below, which only name
    # the first failure.
    if all_true((abs(n0 * n0 + n1 * n1 + n2 * n2 - 1.0) <= 2.0 * tol)
                & (abs(t0 * t0 + t1 * t1 + t2 * t2 - 1.0) <= 2.0 * tol)
                & (abs(b0 * b0 + b1 * b1 + b2 * b2 - 1.0) <= 2.0 * tol)
                & (abs(n0 * t0 + n1 * t1 + n2 * t2) <= tol)
                & (abs(n0 * b0 + n1 * b1 + n2 * b2) <= tol)
                & (abs(t0 * b0 + t1 * b1 + t2 * b2) <= tol)
                & (abs(n1 * t2 - n2 * t1 - b0) <= tol)
                & (abs(n2 * t0 - n0 * t2 - b1) <= tol)
                & (abs(n0 * t1 - n1 * t0 - b2) <= tol)):
        return None
    for (x, y, z), label in ((n, "n"), (t, "t"), (b, "b")):
        # x - x is 0.0 for a finite x and NaN for an inf or a NaN.
        if any_true((x - x) + (y - y) + (z - z) != 0.0):
            return f"{label} must be a finite 3-vector"
        if any_true(abs(x * x + y * y + z * z - 1.0) > 2.0 * tol):
            return f"{label} is not unit within {tol}"
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
    """Right-handed orthonormal triple at one point, or at each row of
    (N, 3) stacks n, t and b.

    Raises NotOrthonormal (a ValueError) with the message of
    frame_defect when a vector is not a finite 3-vector, or the vectors
    miss unit norm, orthogonality, or b = n x t beyond ``tol``; and
    OutOfRange, naming the vector, where it is not an array of numbers.
    A stack whose columns fail is tested row by row, so that the first
    failing row raises its error.
    """

    __slots__ = ("n", "t", "b")

    def __init__(self, n, t, b, tol: float = _STRICT_TOL):
        n = float_array(n, "n")
        t = float_array(t, "t")
        b = float_array(b, "b")
        if n.ndim == 2 and n.shape[1] == 3 and t.shape == b.shape == n.shape:
            # Arrays overflow to inf and make nan as floats do, unflagged.
            with np.errstate(over="ignore", invalid="ignore"):
                defect = frame_defect(n.T, t.T, b.T, tol)
            if defect is not None:
                for row in zip(n, t, b):
                    FramePoint(*row, tol)
        else:
            # One triple is tested on Python floats: a few microseconds,
            # where numpy dot/cross calls cost ~70.  A vector of another
            # shape fails the test as NaNs do, at its turn.
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

    def __init__(self, raw: Callable, name: str):
        self.raw = raw
        self.name = name
        self.n_field = _vector_field(raw, 0)
        self.t_field = _vector_field(raw, 1)
        self.b_field = _vector_field(raw, 2)

    def eval(self, r) -> FramePoint:
        x, y, z = float_3vector(r, "point").tolist()
        n, t, b = self.raw(x, y, z)
        return FramePoint(n, t, b)

    def __call__(self, r) -> FramePoint:
        return self.eval(r)

    def __repr__(self):
        return f"FrameField({self.name!r})"


def _vector_field(raw, k):
    """The field of frame vector k (0, 1, 2 for n, t, b) of a raw, at a
    point of three coordinates: floats, Duals or arrays.  OutOfRange for
    a point of another length, which the raw would drop or miss."""
    def field(p):
        if len(p) != 3:
            raise OutOfRange(
                f"point must be a 3-vector, not of length {len(p)}")
        return raw(p[0], p[1], p[2])[k]
    return field


def float_array(x, what: str) -> np.ndarray:
    """x as a float ndarray, or OutOfRange naming ``what`` where numpy
    cannot convert it (a string entry, rows of unequal length)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"{what} must be an array of numbers: {exc}") from exc


def float_3vector(x, what: str) -> np.ndarray:
    """x as a float array of shape (3,), NaN and inf entries kept, or
    OutOfRange naming ``what`` where it has another shape."""
    v = float_array(x, what)
    if v.shape != (3,):
        raise OutOfRange(f"{what} must be a 3-vector, not of shape {v.shape}")
    return v


def float_scalar(x, what: str) -> float:
    """x as a Python float, NaN and inf kept, or OutOfRange naming
    ``what`` where it is not a number."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"{what} must be a number: {exc}") from exc


def instance_of(x, kind: type, what: str):
    """x, or OutOfRange naming ``what`` where it is not a ``kind``: the
    test of a library object handed to the API, such as a frame jet."""
    if not isinstance(x, kind):
        raise OutOfRange(f"{what} must be a {kind.__name__}, not "
                         f"{type(x).__name__}")
    return x


def finite_numbers(*values) -> bool:
    """True if every value is a real number, neither infinite nor NaN:
    the test of the numbers that a frame id holds."""
    return all(isinstance(v, numbers.Real) and math.isfinite(v)
               for v in values)


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


def on_stack(array_call, row_call, *inputs):
    """array_call() inside array_attempt; or, where it raises or where an
    entry of the inputs is not a finite number, row_call on each row of
    the inputs in turn, each of its outputs stacked over the rows into a
    float array, so that the first failing row raises its own error: the
    one policy of every stacked evaluation.  A stack of no rows has no
    row to replay, so its array_call must not raise.  The callers pair
    the inputs; inputs of unequal length raise ValueError in the replay,
    which never drops the rows of the longer ones."""
    try:
        with array_attempt():
            # Non-finite inputs go row by row: array arithmetic on them
            # raises no flag where the float operations of a row might.
            if all(np.isfinite(a).all() for a in inputs):
                return array_call()
    except Exception:  # replayed below, row by row
        pass
    rows = [row_call(*row) for row in zip(*inputs, strict=True)]
    return tuple(np.array(column, dtype=float) for column in zip(*rows))


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
    dual), or from none where N = 0: the (N, 9) values of the nine
    components and, when dual, their (N, 9, 3) tangents, zero for a
    float component; None in place of the tangents when not dual.
    Raises, for a replay, on a component that is neither a float nor an
    array of N entries."""
    count = len(pts)
    vals = np.empty((count, 9))
    tans = np.zeros((count, 9, 3)) if dual else None
    if not count:
        return vals, tans
    cols = dm.seed_gradient(pts) if dual else np.ascontiguousarray(pts.T)
    for k, c in enumerate(raw_components(frame_field, cols)):
        parts = (c.val, c.e0, c.e1, c.e2) if isinstance(c, dm.Dual) else (c,)
        if any(np.shape(part) not in ((), (count,)) for part in parts):
            raise ValueError("component of another length")
        vals[:, k] = parts[0]
        if dual:
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
        axes = (self.a, self.b, self.c)
        if not finite_numbers(*axes):
            raise OutOfRange(
                f"ellipsoid semi-axes must be finite numbers, not {axes}")
        if min(axes) <= 0:
            raise OutOfRange("ellipsoid semi-axes must be positive")


@dataclasses.dataclass(frozen=True)
class Paraboloid:
    """Graph surface z = a x^2 + b y^2."""

    a: float
    b: float

    def __post_init__(self):
        if not finite_numbers(self.a, self.b):
            raise OutOfRange(f"paraboloid coefficients must be finite "
                             f"numbers, not {(self.a, self.b)}")

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
        if x.__class__ is float and y.__class__ is float:
            return float(fn(x, y))
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
    return rho * _each(math.cos, phi), rho * _each(math.sin, phi), z


def _shell_placement(a=1.0, b=1.0, c=1.0):
    """The point scale * (a sin(theta) cos(phi), b sin(theta) sin(phi),
    c cos(theta)) of draws (scale, theta, phi); the box keeps theta
    0.3 rad clear of the poles."""
    def place(scale, theta, phi):
        sin_theta = _each(math.sin, theta)
        return (scale * (a * sin_theta * _each(math.cos, phi)),
                scale * (b * sin_theta * _each(math.sin, phi)),
                scale * (c * _each(math.cos, theta)))
    return place


def _graph_placement(g: Graph):
    """The point (x, y, f(x, y)) of draws (x, y), f called on floats."""
    f = g.f
    return lambda x, y: (x, y, _each(lambda u, v: float(f(u, v)), x, y))


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
    ``place(id)``.  The placement takes the draws of one sample as
    Python floats, or those of many as equal-length column arrays, and
    returns the point's three coordinates alike; its math calls run per
    entry (_each), so every entry has the bits of scalar code."""

    name: str            # the CLI --frame value
    default: object      # the id verify uses; the CLI's --a/--b/--c
                         # replace its fields of those names
    raw: Callable        # id -> raw(x, y, z)
    homothetic: bool     # coefficients scale as 1/|r| under r -> k r
    box: tuple           # the (low, high) range of each draw of a sample
    place: Callable      # id -> place(*draws) -> the point (x, y, z),
                         # on floats or on column arrays
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
    field = FrameField(spec.raw(fid), name)
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


def check_mu(mu) -> None:
    """check_mu_range, then PolarDirection for mu at +-1, where a state's
    azimuth is undefined.  For an array the entry of largest magnitude
    (or the first NaN) decides; an empty one passes."""
    if isinstance(mu, np.ndarray):
        if not mu.size:
            return
        mu = float(mu[np.argmax(np.abs(mu))])
    check_mu_range(mu)
    if 1.0 - mu * mu < _POLAR_TOL:
        raise PolarDirection("omega undefined for mu at +-1")


def _angles(mu, omega):
    """(mu, s, c, sn) of one direction, as coefficient_terms takes them;
    OutOfRange, from float_angles, for a non-number or non-finite omega."""
    mu, omega = float_angles(mu, omega)
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    return mu, s, math.cos(omega), math.sin(omega)


def angle_arrays(mus, omegas):
    """Arrays (mu, s, c, sn) for paired lists of mu and omega, each entry
    with the bits of _angles at that state.  Columns of finite numbers
    convert as arrays, through on_stack; any other input is replayed
    state by state, so that the first bad entry raises its own
    OutOfRange.  Lists of unequal length, or inputs that are not lists,
    raise OutOfRange before any state is read."""
    try:
        paired = len(mus) == len(omegas)
    except TypeError:  # no length: a number, say
        paired = False
    if not paired:
        raise OutOfRange("mu and omega must be paired lists")

    def as_arrays():
        mu, omega = float_array(mus, "mu"), float_array(omegas, "omega")
        if mu.ndim != 1 or mu.shape != omega.shape:
            raise OutOfRange("mu and omega must be paired lists")
        s = np.sqrt(np.fmax(0.0, 1.0 - mu * mu))
        return mu.copy(), s, _each(math.cos, omega), _each(math.sin, omega)

    return on_stack(as_arrays, _angles, mus, omegas)


def float_vector(x, what: str) -> np.ndarray:
    """x as a float 3-vector, or OutOfRange naming ``what`` where it is
    not a finite 3-vector."""
    v = float_array(x, what)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise OutOfRange(f"{what} must be a finite 3-vector")
    return v


def unit_within(v: np.ndarray, tol: float, entries=None) -> bool:
    """True if the 3-vector v is unit within tol, |v . v - 1| <= tol.
    v . v is formed only where each entry of v (or of ``entries``, its
    Python floats where the caller has them) lies within 2 in magnitude,
    so that it cannot overflow: a vector with a larger entry, an inf or a
    NaN is not unit."""
    x, y, z = v.tolist() if entries is None else entries
    return (abs(x) <= 2.0 and abs(y) <= 2.0 and abs(z) <= 2.0
            and abs(float(v @ v) - 1.0) <= tol)


def orthonormalize(t, b_tilde):
    """Project b_tilde orthogonal to unit t and normalize explicitly.

    The normalization divides by the Euclidean norm of the projected
    residual, not by any closed-form denominator.  OutOfRange where t or
    b_tilde is not a finite 3-vector, or t is not unit; ParallelInput
    where that norm is below 1e-10.
    """
    t = float_vector(t, "t")
    b_tilde = float_vector(b_tilde, "b_tilde")
    if not unit_within(t, 1e-10):
        raise OutOfRange("t must be unit")
    scale = 0
    with np.errstate(over="ignore", invalid="ignore"):
        w = b_tilde - (t @ b_tilde) * t
        norm = float(np.linalg.norm(w))
    if not math.isfinite(norm):
        # An entry of b_tilde near the top of the float range overflowed
        # the projection or the squares of the norm.  The same steps on
        # b_tilde scaled by a power of two, exactly, to a largest entry
        # below 1 give w and its norm scaled by that power.
        scale = math.frexp(float(np.abs(b_tilde).max()))[1]
        b_tilde = np.ldexp(b_tilde, -scale)
        w = b_tilde - (t @ b_tilde) * t
        norm = float(np.linalg.norm(w))
    if norm < math.ldexp(1e-10, -scale):
        raise ParallelInput("b_tilde parallel to t")
    return t, w / norm


def _one_frame(frame, what: str = "frame") -> None:
    """OutOfRange unless frame is a FramePoint of one point."""
    if instance_of(frame, FramePoint, what).n.ndim != 1:
        raise OutOfRange(f"{what} must be of one point, not {len(frame.n)}")


def angles_from_direction(frame: FramePoint, omega_dir) -> AngularPoint:
    """(mu, omega) of a unit direction relative to a frame; OutOfRange
    where the frame is not a FramePoint of one point, or the direction
    is not a finite 3-vector, or not unit, and PolarDirection from
    check_mu where it runs along n.  mu = d . n is clamped to [-1, 1]
    first, where the unit tolerance on d lets it stray."""
    _one_frame(frame)
    d = float_vector(omega_dir, "direction")
    if not unit_within(d, 1e-10):
        raise OutOfRange("direction must be unit")
    mu = float(np.clip(d @ frame.n, -1.0, 1.0))
    check_mu(mu)
    omega = float(np.arctan2(d @ frame.b, d @ frame.t))
    if omega < 0.0:
        omega += 2.0 * np.pi
    if omega >= 2.0 * np.pi:
        omega = 0.0
    return AngularPoint(mu=mu, omega=omega, frame=frame)


def direction_from_angles(frame: FramePoint, mu: float, omega: float):
    """Unit direction mu*n + sqrt(1-mu^2)(cos(omega) t + sin(omega) b);
    OutOfRange for a frame that is not a FramePoint of one point, a NaN
    mu or one outside [-1, 1], or from _angles."""
    _one_frame(frame)
    mu, s, c, sn = _angles(mu, omega)
    check_mu_range(mu)
    # The arithmetic runs on floats, in the order of the array expression
    # mu n + s cos(omega) t + s sin(omega) b.
    sc, ss = s * c, s * sn
    return np.array([mu * n + sc * t + ss * b for n, t, b in zip(
        frame.n.tolist(), frame.t.tolist(), frame.b.tolist())])
