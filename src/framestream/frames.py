"""Orthonormal frame fields (n, t, b) and the (mu, omega) direction chart.

Positions are Cartesian.  Frame fields are pure callables on scalar
triples so the dual-number engine can push tangents straight through
them; the ``eval`` wrapper validates and returns numpy vectors.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from . import dual as dm
from .dual import value
from .errors import (DegeneratePoint, NotOrthonormal, OutOfRange,
                     ParallelInput, PolarDirection)

_STRICT_TOL = 1e-12
_LOOSE_TOL = 1e-8


class FramePoint:
    """Right-handed orthonormal triple at one point.

    Raises NotOrthonormal (a ValueError) when a vector is not a finite
    3-vector, or the vectors miss unit norm, orthogonality, or
    b = n x t beyond ``tol``.
    """

    __slots__ = ("n", "t", "b")

    def __init__(self, n, t, b, tol: float = _STRICT_TOL):
        n = np.asarray(n, dtype=float)
        t = np.asarray(t, dtype=float)
        b = np.asarray(b, dtype=float)
        # The checks run on Python floats: for one 3-vector triple they
        # cost a few microseconds, where numpy dot/cross calls cost ~70.
        rows = []
        for v, label in ((n, "n"), (t, "t"), (b, "b")):
            if v.shape != (3,):
                raise NotOrthonormal(f"{label} must be a finite 3-vector")
            x, y, z = row = v.tolist()
            if not (math.isfinite(x) and math.isfinite(y)
                    and math.isfinite(z)):
                raise NotOrthonormal(f"{label} must be a finite 3-vector")
            if abs(x * x + y * y + z * z - 1.0) > 2.0 * tol:
                raise NotOrthonormal(f"{label} is not unit within {tol}")
            rows.append(row)
        (n0, n1, n2), (t0, t1, t2), (b0, b1, b2) = rows
        if (abs(n0 * t0 + n1 * t1 + n2 * t2) > tol
                or abs(n0 * b0 + n1 * b1 + n2 * b2) > tol
                or abs(t0 * b0 + t1 * b1 + t2 * b2) > tol):
            raise NotOrthonormal(f"frame not orthogonal within {tol}")
        if max(abs(n1 * t2 - n2 * t1 - b0), abs(n2 * t0 - n0 * t2 - b1),
               abs(n0 * t1 - n1 * t0 - b2)) > tol:
            raise NotOrthonormal(f"frame not right-handed within {tol}")
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
    3-tuples (n, t, b).  ``eval`` validates and wraps into FramePoint.
    """

    def __init__(self, raw: Callable, name: str, homothetic: bool = False,
                 diff_order: int = 2):
        self.raw = raw
        self.name = name
        self.homothetic = homothetic
        self.diff_order = diff_order
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
    a: float
    b: float


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


ClosedFormId = object  # union of the dataclasses above


# ---------------------------------------------------------------------------
# Raw frame implementations (scalar level, Dual-compatible).

def _raw_constant(x, y, z):
    return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


def _raw_cyl1(x, y, z):
    rho2 = x * x + y * y
    if value(rho2) < 1e-20:
        raise DegeneratePoint("cylindrical frame undefined on the z-axis")
    inv = 1.0 / dm.sqrt(rho2)
    return ((0.0, 0.0, 1.0),
            (x * inv, y * inv, 0.0),
            (-y * inv, x * inv, 0.0))


def _raw_cyl2(x, y, z):
    rho2 = x * x + y * y
    if value(rho2) < 1e-20:
        raise DegeneratePoint("cylindrical frame undefined on the z-axis")
    inv = 1.0 / dm.sqrt(rho2)
    return ((x * inv, y * inv, 0.0),
            (-y * inv, x * inv, 0.0),
            (0.0, 0.0, 1.0))


def _raw_sphere(x, y, z):
    r2 = x * x + y * y + z * z
    if value(r2) < 1e-20:
        raise DegeneratePoint("sphere frame undefined at the origin")
    rxy2 = x * x + y * y
    if value(rxy2) < 1e-20 * value(r2):
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
        if value(rho2) < 1e-20:
            raise DegeneratePoint("ellipsoid frame undefined at the origin")
        rho = dm.sqrt(rho2)
        st2 = (px * px + py * py) / rho2
        if value(st2) < 1e-24:
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


def _lift_scalar(fn, d_dx, d_dy):
    """Lift a plain-float callable of (x, y) to floats or Duals using
    its supplied first partials for the chain rule."""
    def lifted(x, y):
        xv, yv = value(x), value(y)
        v = float(fn(xv, yv))
        if not isinstance(x, dm.Dual) and not isinstance(y, dm.Dual):
            return v
        width = len(x.eps) if isinstance(x, dm.Dual) else len(y.eps)
        xe = x.eps if isinstance(x, dm.Dual) else (0.0,) * width
        ye = y.eps if isinstance(y, dm.Dual) else (0.0,) * width
        px = float(d_dx(xv, yv))
        py = float(d_dy(xv, yv))
        return dm.Dual(v, tuple(px * ex + py * ey for ex, ey in zip(xe, ye)))
    return lifted


def _make_raw_graph(gx, gy):
    def raw(x, y, z):
        fx = gx(x, y)
        fy = gy(x, y)
        n = dm.normalize3((-fx, -fy, 1.0))
        t = dm.normalize3((1.0, 0.0, fx))
        btil = dm.normalize3((0.0, 1.0, fy))
        return n, t, _gram_schmidt_raw(t, btil)
    return raw


def builtin_frame(fid: ClosedFormId) -> FrameField:
    """Frame field for a closed-form identifier."""
    if isinstance(fid, Constant):
        field = FrameField(_raw_constant, "constant", homothetic=False)
    elif isinstance(fid, CylindricalI):
        field = FrameField(_raw_cyl1, "cylindrical-i", homothetic=True)
    elif isinstance(fid, CylindricalII):
        field = FrameField(_raw_cyl2, "cylindrical-ii", homothetic=True)
    elif isinstance(fid, Sphere):
        field = FrameField(_raw_sphere, "sphere", homothetic=True)
    elif isinstance(fid, Ellipsoid):
        raw = _make_raw_ellipsoid(fid.a, fid.b, fid.c)
        field = FrameField(raw, f"ellipsoid({fid.a},{fid.b},{fid.c})",
                           homothetic=True)
    elif isinstance(fid, Paraboloid):
        a, b = fid.a, fid.b
        gx = _lift_scalar(lambda x, y: 2.0 * a * x,
                          lambda x, y: 2.0 * a, lambda x, y: 0.0)
        gy = _lift_scalar(lambda x, y: 2.0 * b * y,
                          lambda x, y: 0.0, lambda x, y: 2.0 * b)
        field = FrameField(_make_raw_graph(gx, gy),
                           f"paraboloid({a},{b})", homothetic=False)
    elif isinstance(fid, Graph):
        gx = _lift_scalar(fid.f_x, fid.f_xx, fid.f_xy)
        gy = _lift_scalar(fid.f_y, fid.f_xy, fid.f_yy)
        field = FrameField(_make_raw_graph(gx, gy), "graph",
                           homothetic=False)
    else:
        raise OutOfRange(f"unknown frame id {fid!r}")
    field.fid = fid
    return field


# ---------------------------------------------------------------------------
# Direction chart.

def orthonormalize(t, b_tilde):
    """Project b_tilde orthogonal to unit t and normalize explicitly.

    The normalization divides by the Euclidean norm of the projected
    residual, not by any closed-form denominator.
    """
    t = np.asarray(t, dtype=float)
    b_tilde = np.asarray(b_tilde, dtype=float)
    if abs(t @ t - 1.0) > 1e-10:
        raise OutOfRange("t must be unit")
    w = b_tilde - (t @ b_tilde) * t
    norm = float(np.linalg.norm(w))
    if norm < 1e-10:
        raise ParallelInput("b_tilde parallel to t")
    return t, w / norm


def angles_from_direction(frame: FramePoint, omega_dir) -> AngularPoint:
    """(mu, omega) of a unit direction relative to a frame."""
    d = np.asarray(omega_dir, dtype=float)
    mu = float(d @ frame.n)
    if 1.0 - mu * mu < 1e-14:
        raise PolarDirection("azimuth undefined for directions parallel to n")
    omega = float(np.arctan2(d @ frame.b, d @ frame.t))
    if omega < 0.0:
        omega += 2.0 * np.pi
    if omega >= 2.0 * np.pi:
        omega = 0.0
    return AngularPoint(mu=mu, omega=omega, frame=frame)


def direction_from_angles(frame: FramePoint, mu: float, omega: float):
    """Unit direction mu*n + sqrt(1-mu^2)(cos(omega) t + sin(omega) b)."""
    if abs(mu) > 1.0:
        raise OutOfRange(f"mu = {mu} outside [-1, 1]")
    s = np.sqrt(max(0.0, 1.0 - mu * mu))
    return (mu * frame.n + s * np.cos(omega) * frame.t
            + s * np.sin(omega) * frame.b)
