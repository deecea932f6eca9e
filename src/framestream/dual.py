"""Forward-mode scalar dual numbers with a three-component tangent.

A ``Dual`` carries a value and three tangent components ``e0, e1, e2``.
Seeding the coordinates with the identity gives a full gradient in one
pass; a seed of (h, 0, 0) carries the single direction h in ``e0``.
Math helpers below dispatch on ``float | Dual`` so the same frame code
serves both plain evaluation and differentiation.
"""
from __future__ import annotations

import math


class Dual:
    __slots__ = ("val", "e0", "e1", "e2")

    def __init__(self, val: float, e0: float, e1: float, e2: float):
        self.val, self.e0, self.e1, self.e2 = val, e0, e1, e2

    @property
    def eps(self) -> tuple:
        """The tangent as a tuple (e0, e1, e2)."""
        return (self.e0, self.e1, self.e2)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.e0!r}, {self.e1!r}, {self.e2!r})"

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.e0 + o.e0, self.e1 + o.e1,
                        self.e2 + o.e2)
        return Dual(self.val + o, self.e0, self.e1, self.e2)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val - o.val, self.e0 - o.e0, self.e1 - o.e1,
                        self.e2 - o.e2)
        return Dual(self.val - o, self.e0, self.e1, self.e2)

    def __rsub__(self, o):
        return Dual(o - self.val, -self.e0, -self.e1, -self.e2)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val * o.val,
                        self.e0 * o.val + self.val * o.e0,
                        self.e1 * o.val + self.val * o.e1,
                        self.e2 * o.val + self.val * o.e2)
        return Dual(self.val * o, self.e0 * o, self.e1 * o, self.e2 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            inv = 1.0 / o.val
            q = self.val * inv
            return Dual(q, (self.e0 - q * o.e0) * inv,
                        (self.e1 - q * o.e1) * inv,
                        (self.e2 - q * o.e2) * inv)
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        inv = 1.0 / self.val
        q = o * inv
        f = -q * inv
        return Dual(q, f * self.e0, f * self.e1, f * self.e2)

    def __neg__(self):
        return Dual(-self.val, -self.e0, -self.e1, -self.e2)


def value(x):
    """Value part of a float or Dual."""
    return x.val if isinstance(x, Dual) else x


def tangent(x) -> tuple:
    """Tangent (e0, e1, e2) of a Dual; zeros for a float."""
    return (x.e0, x.e1, x.e2) if isinstance(x, Dual) else (0.0, 0.0, 0.0)


def sin(x):
    if isinstance(x, Dual):
        c = math.cos(x.val)
        return Dual(math.sin(x.val), c * x.e0, c * x.e1, c * x.e2)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        s = -math.sin(x.val)
        return Dual(math.cos(x.val), s * x.e0, s * x.e1, s * x.e2)
    return math.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = math.sqrt(x.val)
        f = 0.5 / root
        return Dual(root, f * x.e0, f * x.e1, f * x.e2)
    return math.sqrt(x)


# ---------------------------------------------------------------------------
# Tuple-vector helpers, generic over float | Dual components.

def dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def norm3(u):
    return sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def normalize3(u):
    inv = 1.0 / norm3(u)
    return (u[0] * inv, u[1] * inv, u[2] * inv)


def seed_direction(r, h):
    """Dual triple for one directional derivative along h, carried in
    the first tangent component."""
    return (Dual(float(r[0]), float(h[0]), 0.0, 0.0),
            Dual(float(r[1]), float(h[1]), 0.0, 0.0),
            Dual(float(r[2]), float(h[2]), 0.0, 0.0))


def seed_gradient(r):
    """Dual triple whose tangent components span the identity."""
    return (Dual(float(r[0]), 1.0, 0.0, 0.0),
            Dual(float(r[1]), 0.0, 1.0, 0.0),
            Dual(float(r[2]), 0.0, 0.0, 1.0))
