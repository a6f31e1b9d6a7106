"""Driftless control-affine systems and their Lie-bracket structure.

A system is a tuple of input vector fields ``f_1, ..., f_m`` on R^n with
``m < n``, each paired with an analytic Jacobian evaluator, plus an ordered
set of index pairs selecting which first-order brackets complete the span of
the state space (degree of nonholonomy 2: longer brackets are out of scope).

Everything here is immutable and evaluators are pure functions of the state,
so systems can be shared freely across concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from . import dualnum

__all__ = [
    "VectorFieldSystem", "BracketMatrix", "system_from_fields", "input_matrix",
    "lie_bracket", "assemble_bracket_matrix", "bracket_generating_check",
]

FieldFn = Callable[[np.ndarray], np.ndarray]
JacFn = Callable[[np.ndarray], np.ndarray]

# relative singular-value floor of the spanning test
SPAN_TOL = 1e-10


@dataclass(frozen=True)
class VectorFieldSystem:
    """Input fields with Jacobians and the ordered bracket pair set.

    Field indices are 1-based throughout the public surface, matching the
    usual subscripts; ``pairs`` holds ``(i, j)`` with ``1 <= i < j <= m``.
    The pair order fixes the bracket-column order of the bracket matrix and
    the oscillator frequency assignment downstream, so it is preserved
    exactly as given.
    """

    n: int
    m: int
    fields: Tuple[FieldFn, ...]
    jacobians: Tuple[JacFn, ...]
    pairs: Tuple[Tuple[int, int], ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if self.m >= self.n:
            raise ValueError(f"underactuation required: m={self.m} < n={self.n}")
        if self.m < 2:
            raise ValueError("m >= 2 required: no bracket pair can be formed")
        if len(self.fields) != self.m or len(self.jacobians) != self.m:
            raise ValueError("need one field and one Jacobian per input")
        if len(self.pairs) != self.n - self.m:
            raise ValueError(
                f"pair set must have n - m = {self.n - self.m} entries, "
                f"got {len(self.pairs)}")
        seen = set()
        for i, j in self.pairs:
            if not (1 <= i < j <= self.m):
                raise ValueError(f"bad pair ({i},{j}): need 1 <= i < j <= m")
            if (i, j) in seen:
                raise ValueError(f"duplicate pair ({i},{j})")
            seen.add((i, j))
        zero = np.zeros(self.n)
        cols = np.column_stack([f(zero) for f in self.fields])
        if not np.all(np.isfinite(cols)):
            raise ValueError("fields are not finite at the origin")
        if np.linalg.matrix_rank(cols, tol=1e-10) != self.m:
            raise ValueError("input fields are rank deficient at the origin")

    def field(self, j: int, x) -> np.ndarray:
        """Evaluate field ``f_j`` (1-based index)."""
        return self.fields[j - 1](x)

    def jacobian(self, j: int, x) -> np.ndarray:
        """Evaluate the Jacobian of ``f_j`` (1-based index)."""
        return self.jacobians[j - 1](x)


@dataclass(frozen=True)
class BracketMatrix:
    """Square matrix with field columns first, bracket columns in pair order."""

    x: np.ndarray
    matrix: np.ndarray
    condition: float


def system_from_fields(n: int, m: int, fields: Sequence[FieldFn],
                       pairs: Sequence[Tuple[int, int]],
                       name: str = "") -> VectorFieldSystem:
    """Build a system from field closures alone.

    Jacobians are derived by forward-mode dual evaluation of the closures, so
    the closures must stick to dual-compatible operations (see
    :mod:`oscstab.dualnum`).  On a state of duals the derived Jacobian is
    itself differentiated (nested duals), so these systems work wherever
    analytic Jacobians do, synthesized laws included.
    """
    jacs = tuple(_dual_jacobian(f) for f in fields)
    return VectorFieldSystem(n=n, m=m, fields=tuple(fields), jacobians=jacs,
                             pairs=tuple(tuple(p) for p in pairs), name=name)


def _dual_jacobian(f: FieldFn) -> JacFn:
    def jac(x):
        return dualnum.jacobian(f, x)[1]
    return jac


def input_matrix(sys: VectorFieldSystem, x) -> np.ndarray:
    """Stack the input fields at ``x`` as the columns of an (n, m) matrix."""
    return np.column_stack([f(x) for f in sys.fields])


def _check_point(sys: VectorFieldSystem, x) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (sys.n,):
        raise ValueError(f"state must have shape ({sys.n},), got {x.shape}")
    if x.dtype != object and not np.all(np.isfinite(x)):
        raise ValueError("state has non-finite entries")
    return x


def lie_bracket(sys: VectorFieldSystem, i: int, j: int, x) -> np.ndarray:
    """First-order Lie bracket ``Df_j(x) f_i(x) - Df_i(x) f_j(x)``.

    Antisymmetric in ``(i, j)``; indices are 1-based.  Accepts dual states
    for derivative propagation.
    """
    if not (1 <= i <= sys.m and 1 <= j <= sys.m):
        raise ValueError(f"field indices out of range: ({i},{j}) with m={sys.m}")
    x = _check_point(sys, x)
    fi = sys.field(i, x)
    fj = sys.field(j, x)
    dfi = sys.jacobian(i, x)
    dfj = sys.jacobian(j, x)
    if x.dtype != object:
        _check_jacobians(dfi, dfj)
    return dfj @ fi - dfi @ fj


def _check_jacobians(*jacs) -> None:
    for d in jacs:
        if not np.all(np.isfinite(d)):
            raise ValueError("non-finite Jacobian entries at the evaluation point")


@functools.lru_cache(maxsize=None)
def _pair_rows(pairs: Tuple[Tuple[int, int], ...]):
    """Inputs named by ``pairs`` (1-based) and, per pair, the rows of its
    ``f_i`` and ``f_j`` among them (read-only index arrays)."""
    used = sorted({k for pair in pairs for k in pair})
    row = {k: r for r, k in enumerate(used)}
    i = np.array([row[a] for a, _ in pairs])
    j = np.array([row[b] for _, b in pairs])
    i.setflags(write=False)
    j.setflags(write=False)
    return tuple(used), i, j


def _pair_brackets(sys: VectorFieldSystem,
                   x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fields and brackets of every pair at one float point.

    Returns ``(Fi, Fj, B)``, each of shape (|S|, n) in pair order: for pair
    ``q = (i, j)``, ``Fi[q] = f_i(x)``, ``Fj[q] = f_j(x)`` and
    ``B[q] = [f_i, f_j](x)`` as in :func:`lie_bracket`.  Each input field
    that appears in a pair, and its Jacobian, is evaluated once; all
    brackets come from ``DF = D @ F.T`` as ``B = DF[J, :, I] - DF[I, :, J]``.
    """
    x = _check_point(sys, np.asarray(x, dtype=float))
    used, i, j = _pair_rows(tuple(map(tuple, sys.pairs)))
    f = np.array([sys.fields[k - 1](x) for k in used], dtype=float)
    d = np.array([sys.jacobians[k - 1](x) for k in used], dtype=float)
    _check_jacobians(d)
    df = d @ f.T  # df[k, :, l] = Df_k(x) f_l(x)
    return f[i], f[j], df[j, :, i] - df[i, :, j]


def _bracket_columns(sys: VectorFieldSystem, x) -> np.ndarray:
    cols = [sys.field(k, x) for k in range(1, sys.m + 1)]
    cols += [lie_bracket(sys, i, j, x) for (i, j) in sys.pairs]
    return np.column_stack(cols)


def _condition_1norm(mat: np.ndarray) -> float:
    """Exact 1-norm condition number ``||F||_1 ||F^-1||_1`` of a square
    matrix; ``inf`` when it is singular or has a non-finite entry."""
    if not np.all(np.isfinite(mat)):
        return float("inf")
    return float(np.linalg.cond(mat, 1))


def assemble_bracket_matrix(sys: VectorFieldSystem, x) -> BracketMatrix:
    """Matrix of field and bracket columns with its condition number.

    Column order is ``f_1, ..., f_m`` followed by the brackets in pair-set
    order.  Singularity is reported through ``condition = inf`` rather than
    raised: a rank-deficient point is a legitimate query.
    """
    x = _check_point(sys, np.asarray(x, dtype=float))
    mat = _bracket_columns(sys, x)
    return BracketMatrix(x=x, matrix=mat, condition=_condition_1norm(mat))


def bracket_generating_check(sys: VectorFieldSystem, x) -> Tuple[bool, float]:
    """Spanning test for the field-plus-bracket columns at ``x``.

    Passes iff every singular value of the bracket matrix exceeds
    ``SPAN_TOL`` (1e-10) times the largest one; returns the verdict and the
    smallest singular value.  Singular values make the test insensitive to
    the column scaling that bracket columns typically carry.
    """
    x = _check_point(sys, np.asarray(x, dtype=float))
    svals = np.linalg.svd(_bracket_columns(sys, x), compute_uv=False)
    return bool(svals[-1] > SPAN_TOL * svals[0]), float(svals[-1])

