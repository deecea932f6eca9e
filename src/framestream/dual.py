"""Forward-mode dual numbers with a three-component tangent.

A ``Dual`` carries a value and three tangent components ``e0, e1, e2``,
each a Python float or an ndarray of one common length: an array Dual
is N points differentiated in one pass, element by element with the
float operations.  Seeding the coordinates with the identity gives a
full gradient in one pass; a seed of (h, 0, 0) carries the single
direction h in ``e0``.  Math helpers below dispatch on ``float | array
| Dual`` so the same frame code serves both plain evaluation and
differentiation.

The operations and math helpers build their results through ``_dual``,
``object.__new__`` and four slot stores, which skips the Python frame
of ``__init__`` that a ``Dual(...)`` call pays; they tell a Dual
operand by ``o.__class__ is Dual``.  Float and array Duals take the
same code.
"""
from __future__ import annotations

import math

import numpy as np


class Dual:
    __slots__ = ("val", "e0", "e1", "e2")
    # An ndarray operand defers to the Dual's reflected operators instead
    # of building an object array of Duals.
    __array_ufunc__ = None

    def __init__(self, val: float, e0: float, e1: float, e2: float):
        self.val, self.e0, self.e1, self.e2 = val, e0, e1, e2

    @property
    def eps(self) -> tuple:
        """The tangent as a tuple (e0, e1, e2)."""
        return (self.e0, self.e1, self.e2)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.e0!r}, {self.e1!r}, {self.e2!r})"

    def __add__(self, o):
        if o.__class__ is Dual:
            return _dual(self.val + o.val, self.e0 + o.e0, self.e1 + o.e1,
                         self.e2 + o.e2)
        return _dual(self.val + o, self.e0, self.e1, self.e2)

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is Dual:
            return _dual(self.val - o.val, self.e0 - o.e0, self.e1 - o.e1,
                         self.e2 - o.e2)
        return _dual(self.val - o, self.e0, self.e1, self.e2)

    def __rsub__(self, o):
        return _dual(o - self.val, -self.e0, -self.e1, -self.e2)

    def __mul__(self, o):
        if o.__class__ is Dual:
            return _dual(self.val * o.val,
                         self.e0 * o.val + self.val * o.e0,
                         self.e1 * o.val + self.val * o.e1,
                         self.e2 * o.val + self.val * o.e2)
        return _dual(self.val * o, self.e0 * o, self.e1 * o, self.e2 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is Dual:
            inv = 1.0 / o.val
            q = self.val * inv
            return _dual(q, (self.e0 - q * o.e0) * inv,
                         (self.e1 - q * o.e1) * inv,
                         (self.e2 - q * o.e2) * inv)
        # Multiplication by the reciprocal, as self * (1.0 / o) computes.
        inv = 1.0 / o
        return _dual(self.val * inv, self.e0 * inv, self.e1 * inv,
                     self.e2 * inv)

    def __rtruediv__(self, o):
        inv = 1.0 / self.val
        q = o * inv
        f = -q * inv
        return _dual(q, f * self.e0, f * self.e1, f * self.e2)

    def __neg__(self):
        return _dual(-self.val, -self.e0, -self.e1, -self.e2)


_new = object.__new__


def _dual(val, e0, e1, e2):
    """Dual(val, e0, e1, e2) built without the call of __init__: the
    constructor of every result of the operations and math helpers."""
    d = _new(Dual)
    d.val = val
    d.e0 = e0
    d.e1 = e1
    d.e2 = e2
    return d


def value(x):
    """Value part of a float or Dual."""
    return x.val if isinstance(x, Dual) else x


def tangent(x) -> tuple:
    """Tangent (e0, e1, e2) of a Dual; zeros for a float."""
    return (x.e0, x.e1, x.e2) if isinstance(x, Dual) else (0.0, 0.0, 0.0)


def below(x, bound) -> bool:
    """True if the value of a float or Dual x is below bound, or, for
    array values, if any entry is: the guard of the frame raws."""
    flags = (x.val if x.__class__ is Dual else x) < bound
    return flags if flags.__class__ is bool else bool(flags.any())


# math on floats, numpy on arrays: a math function raises TypeError on
# an array, and trying math first keeps the float path as fast as before.

def sin(x):
    if x.__class__ is Dual:
        c = cos(x.val)
        return _dual(sin(x.val), c * x.e0, c * x.e1, c * x.e2)
    try:
        return math.sin(x)
    except TypeError:
        return np.sin(x)


def cos(x):
    if x.__class__ is Dual:
        s = -sin(x.val)
        return _dual(cos(x.val), s * x.e0, s * x.e1, s * x.e2)
    try:
        return math.cos(x)
    except TypeError:
        return np.cos(x)


def sqrt(x):
    if x.__class__ is float:  # the raws' most frequent call
        return math.sqrt(x)
    if x.__class__ is Dual:
        v = x.val
        root = math.sqrt(v) if v.__class__ is float else sqrt(v)
        f = 0.5 / root
        return _dual(root, f * x.e0, f * x.e1, f * x.e2)
    try:
        return math.sqrt(x)
    except TypeError:
        return np.sqrt(x)


# ---------------------------------------------------------------------------
# Tuple-vector helpers, generic over float | array | Dual components.

def dot3(u, v):
    (u0, u1, u2), (v0, v1, v2) = u, v
    return u0 * v0 + u1 * v1 + u2 * v2


def normalize3(u):
    x, y, z = u
    sq = x * x + y * y + z * z
    # sqrt's float path inline: the float raws' most frequent call.
    inv = 1.0 / (math.sqrt(sq) if sq.__class__ is float else sqrt(sq))
    return (x * inv, y * inv, z * inv)


def seed_direction(r, h):
    """Dual triple for one directional derivative along h, carried in
    the first tangent component."""
    return (Dual(float(r[0]), float(h[0]), 0.0, 0.0),
            Dual(float(r[1]), float(h[1]), 0.0, 0.0),
            Dual(float(r[2]), float(h[2]), 0.0, 0.0))


def seed_gradient(r):
    """Dual triple whose tangent components span the identity, at one
    point, a 3-sequence (float values), or at each row of an (N, 3)
    array (array values, float tangents)."""
    if isinstance(r, np.ndarray) and r.ndim == 2:
        x, y, z = np.ascontiguousarray(r.T)
    else:
        x, y, z = float(r[0]), float(r[1]), float(r[2])
    return (_dual(x, 1.0, 0.0, 0.0), _dual(y, 0.0, 1.0, 0.0),
            _dual(z, 0.0, 0.0, 1.0))
