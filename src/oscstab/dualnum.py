"""Forward-mode automatic differentiation with vector-tangent dual numbers.

A :class:`Dual` carries a value together with the full gradient row with
respect to the seed coordinates, so one evaluation of a closure on a seeded
state yields the exact Jacobian row by row: :func:`jacobian` seeds and
evaluates, and :func:`tangents` splits an evaluated array into values and
rows.  Closures stay ordinary Python: they receive an object ndarray of
duals and may use ``+ - * / **``, ``abs``, ``np.sqrt`` / ``np.sin`` /
``np.cos`` / ``np.exp`` / ``np.log`` (numpy dispatches these to the
methods below on object arrays) and the module-level :func:`sign`.  An
ndarray operand is left to numpy, which applies the operation entry by
entry.

Duals nest: seeding a state whose entries are themselves duals (see
:func:`jacobian`) gives values and gradient rows that carry the outer
derivative, which is how Jacobians derived from field closures are
differentiated once more.

Analytic derivatives are preferred wherever they exist; this module is the
fallback for user closures, and it supplies the derivatives of the bracket
matrix and of ``grad V`` that the feedback synthesis differentiates through
its linear solve.  Central finite differences are deliberately not provided
here: they belong to test oracles.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Dual", "sign", "seed_state", "jacobian", "tangents"]


class Dual:
    """Value plus gradient row; supports nesting (grad entries may be Duals)."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.grad + other.val * self.grad)
        return Dual(self.val * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.grad - (self.val * inv) * other.grad) * inv)
        return Dual(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, (-other * inv * inv) * self.grad)

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __pos__(self):
        return self

    def __pow__(self, c):
        if isinstance(c, Dual):
            raise TypeError("dual exponents are not supported")
        if c == 1:
            return Dual(self.val, self.grad)
        if self.val == 0.0:
            # limit of c*v**(c-1) as v -> 0; undefined below exponent 1
            if c > 1:
                return Dual(0.0, 0.0 * self.grad)
            return Dual(0.0, math.nan * self.grad)
        return Dual(self.val ** c, (c * self.val ** (c - 1)) * self.grad)

    def __abs__(self):
        s = 1.0 if self.val > 0 else (-1.0 if self.val < 0 else 0.0)
        return Dual(abs(self.val), s * self.grad)

    # comparisons act on the value (used for pivoting and np.sign) ----------
    def __lt__(self, other):
        return self.val < (other.val if isinstance(other, Dual) else other)

    def __le__(self, other):
        return self.val <= (other.val if isinstance(other, Dual) else other)

    def __gt__(self, other):
        return self.val > (other.val if isinstance(other, Dual) else other)

    def __ge__(self, other):
        return self.val >= (other.val if isinstance(other, Dual) else other)

    def __eq__(self, other):
        return self.val == (other.val if isinstance(other, Dual) else other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    # elementary functions (numpy calls these by name on object arrays) -----
    def sqrt(self):
        if self.val == 0.0:
            # meaningful only when the tangent also vanishes (kink convention)
            return Dual(0.0, 0.0 * self.grad)
        r = _apply("sqrt", self.val)
        return Dual(r, (0.5 / r) * self.grad)

    def sin(self):
        return Dual(_apply("sin", self.val), _apply("cos", self.val) * self.grad)

    def cos(self):
        return Dual(_apply("cos", self.val), -_apply("sin", self.val) * self.grad)

    def exp(self):
        e = _apply("exp", self.val)
        return Dual(e, e * self.grad)

    def log(self):
        return Dual(_apply("log", self.val), self.grad / self.val)


def _apply(name: str, v):
    """Elementary function ``name`` of a float or (nested) dual value."""
    return getattr(v, name)() if isinstance(v, Dual) else getattr(math, name)(v)


def sign(x):
    """Sign with sign(0) = 0; works on floats, duals and ndarrays.

    The derivative of the sign is taken as zero everywhere, so the result is
    always a plain float (or float array).
    """
    if isinstance(x, Dual):
        return 1.0 if x.val > 0 else (-1.0 if x.val < 0 else 0.0)
    if isinstance(x, np.ndarray) and x.dtype == object:
        return np.array([sign(e) for e in x])
    return np.sign(x)


def seed_state(x):
    """Object ndarray of duals with identity tangents for the point ``x``."""
    x = np.asarray(x)
    n = x.shape[0]
    out = np.empty(n, dtype=object)
    for i in range(n):
        g = np.zeros(n)
        g[i] = 1.0
        out[i] = Dual(float(x[i]) if x.dtype != object else x[i], g)
    return out


def jacobian(f, x):
    """Value and Jacobian of a vector-valued closure at ``x``.

    Returns ``(f(x), J)`` with ``J[k, i] = d f_k / d x_i``.  A state of
    duals (an object array) is seeded one level deeper, and the value and
    Jacobian come back as object arrays carrying its derivatives.
    """
    x = np.asarray(x)
    if x.dtype != object:
        x = x.astype(float)
    return tangents(f(seed_state(x)), x.shape[0], x.dtype)


def tangents(a, n: int, dtype=float):
    """Values and tangents of an array whose entries are duals seeded over
    ``n`` coordinates, or constants.

    Returns ``(vals, tan)`` with ``vals.shape == a.shape`` and
    ``tan.shape == a.shape + (n,)``; a constant entry has a zero tangent.
    """
    a = np.asarray(a)
    vals = np.empty(a.size, dtype=dtype)
    tan = np.zeros((a.size, n), dtype=dtype)
    for k, e in enumerate(a.flat):
        if isinstance(e, Dual):
            vals[k] = e.val
            tan[k] = e.grad
        else:
            vals[k] = e
    return vals.reshape(a.shape), tan.reshape(a.shape + (n,))
