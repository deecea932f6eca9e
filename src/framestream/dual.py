"""Forward-mode scalar dual numbers with a fixed-width tangent tuple.

A ``Dual`` carries a value and a tuple of tangent components.  Width 1
gives a single directional derivative, width 3 a full gradient in one
pass.  Math helpers below dispatch on ``float | Dual`` so the same
frame code serves both plain evaluation and differentiation.
"""
from __future__ import annotations

import math


class Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val: float, eps: tuple):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val,
                        tuple(a + b for a, b in zip(self.eps, other.eps)))
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val,
                        tuple(a - b for a, b in zip(self.eps, other.eps)))
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, tuple(-a for a in self.eps))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        tuple(a * other.val + self.val * b
                              for a, b in zip(self.eps, other.eps)))
        return Dual(self.val * other, tuple(a * other for a in self.eps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            return Dual(q, tuple((a - q * b) * inv
                                 for a, b in zip(self.eps, other.eps)))
        inv = 1.0 / other
        return Dual(self.val * inv, tuple(a * inv for a in self.eps))

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        q = other * inv
        return Dual(q, tuple(-q * inv * a for a in self.eps))

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.eps))


def value(x):
    """Value part of a float or Dual."""
    return x.val if isinstance(x, Dual) else x


def sin(x):
    if isinstance(x, Dual):
        c = math.cos(x.val)
        return Dual(math.sin(x.val), tuple(c * a for a in x.eps))
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        s = -math.sin(x.val)
        return Dual(math.cos(x.val), tuple(s * a for a in x.eps))
    return math.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = math.sqrt(x.val)
        f = 0.5 / root
        return Dual(root, tuple(f * a for a in x.eps))
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
    """Dual triple for one directional derivative along h."""
    return (Dual(float(r[0]), (float(h[0]),)),
            Dual(float(r[1]), (float(h[1]),)),
            Dual(float(r[2]), (float(h[2]),)))


def seed_gradient(r):
    """Dual triple whose tangent components span the identity (width 3)."""
    return (Dual(float(r[0]), (1.0, 0.0, 0.0)),
            Dual(float(r[1]), (0.0, 1.0, 0.0)),
            Dual(float(r[2]), (0.0, 0.0, 1.0)))
