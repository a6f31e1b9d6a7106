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
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import _block, dualnum

__all__ = [
    "VectorFieldSystem", "system_from_fields", "input_matrix",
    "bracket_generating_check",
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

    Each field and Jacobian takes one state of shape (n,), floats or duals,
    and may also take a (k, n) float block and return its per-row results
    stacked; construction probes which do (:func:`oscstab._block.probe`).
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
        for fn in (*self.fields, *self.jacobians):
            _block.probe(fn, self.n)

    def field(self, j: int, x) -> np.ndarray:
        """Evaluate field ``f_j`` (1-based index)."""
        return self.fields[j - 1](x)

    def jacobian(self, j: int, x) -> np.ndarray:
        """Evaluate the Jacobian of ``f_j`` (1-based index)."""
        return self.jacobians[j - 1](x)


def system_from_fields(n: int, m: int, fields: Sequence[FieldFn],
                       pairs: Sequence[Tuple[int, int]],
                       name: str = "") -> VectorFieldSystem:
    """Build a system from field closures alone.

    Jacobians are derived by forward-mode dual evaluation of the closures, so
    the closures must stick to dual-compatible operations (see
    :mod:`oscstab.dualnum`).  On a state of duals the derived Jacobian is
    itself differentiated (nested duals), so these systems work wherever
    analytic Jacobians do, synthesized laws included.  Closures written on
    the last axis (``x[..., c]``) pass the block probe; the derived
    Jacobians always run once per point.
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


def _check_point(sys: VectorFieldSystem, x, block: bool = False) -> np.ndarray:
    """``x`` as an array, checked to be one state of shape (n,) or, with
    ``block``, also a (k, n) float block with ``k >= 1``, with finite float
    entries."""
    x = np.asarray(x)
    if x.shape != (sys.n,) and not (
            block and x.ndim == 2 and x.shape[1] == sys.n and len(x)):
        want = (f"({sys.n},) or (k, {sys.n}) with k >= 1" if block
                else f"({sys.n},)")
        raise ValueError(f"state must have shape {want}, got {x.shape}")
    if x.dtype != object and not np.all(np.isfinite(x)):
        raise ValueError("state has non-finite entries")
    return x


# message of the ValueError a non-finite Jacobian raises
JACOBIAN_ERROR = "non-finite Jacobian entries at the evaluation point"


@functools.lru_cache(maxsize=None)
def _pair_rows(pairs: Tuple[Tuple[int, int], ...]):
    """Inputs named by ``pairs`` (1-based), their 0-based indices and, per
    pair, the rows of its ``f_i`` and ``f_j`` among them (read-only index
    arrays)."""
    used = sorted({k for pair in pairs for k in pair})
    row = {k: r for r, k in enumerate(used)}
    cols = np.array(used) - 1
    i = np.array([row[a] for a, _ in pairs])
    j = np.array([row[b] for _, b in pairs])
    for a in (cols, i, j):
        a.setflags(write=False)
    return tuple(used), cols, i, j


def _pair_brackets(sys: VectorFieldSystem, X, f=None, g=None):
    """Fields and brackets of every pair at a block of float points.

    ``X`` has shape (k, n).  Returns ``(F, B, jac_ok)``: ``F`` of shape
    (k, U, n) holds the values of the U inputs that enter a pair, in the
    order of :func:`_pair_rows`, and ``B`` of shape (k, |S|, n) the brackets
    in pair order, ``B[r, q] = Df_j f_i - Df_i f_j`` at ``X[r]`` for pair
    ``q = (i, j)``; ``jac_ok[r]`` is False where a Jacobian has a
    non-finite entry, and that point's brackets are then not meaningful (the
    caller raises ``ValueError`` with ``JACOBIAN_ERROR``).  Each input field
    that appears in a pair, and its Jacobian, is evaluated at every point of
    ``X``, on the whole block when it passed the block probe (see
    :func:`oscstab._block.rows`); ``f``, the (k, m, n) values of all input
    fields at ``X``, replaces the field calls when given.  The bracket
    algebra runs once on the stacked values, ``DF[r, a, b] = Df_a f_b`` and
    ``B = DF[J, I] - DF[I, J]`` per point.

    With the covector block ``g`` of shape (k, n), ``B`` is the projection
    ``g . [f_i, f_j]``, of shape (k, |S|): the Jacobians are contracted
    first, ``W_a = g^T Df_a`` and ``DF[r, a, b] = W_a . f_b``, so neither
    the brackets nor the (k, U, U, n) products ``Df_a f_b`` are formed (the
    vector-Jacobian product of reverse mode); nor is the (k, U, n, n) stack
    of Jacobians, see :func:`_contracted_jacobians`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError(f"states must have shape (k, {sys.n}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("state has non-finite entries")
    used, cols, i, j = _pair_rows(tuple(map(tuple, sys.pairs)))
    if f is None:
        f = _block.stacked([sys.fields[u - 1] for u in used], X)
    elif len(cols) < f.shape[1]:
        f = f[:, cols]
    if g is None:
        d = _block.stacked([sys.jacobians[u - 1] for u in used], X)
        jac_ok = np.ones(len(X), dtype=bool)
        if not np.isfinite(d).all():
            jac_ok = np.isfinite(d).all(axis=(1, 2, 3))
            # keep the bad points out of the algebra, as the check does per
            # point
            d[~jac_ok] = 0.0
        df = (d @ f[:, None].swapaxes(2, 3)).swapaxes(2, 3)  # (k, U, U, n)
    else:
        w, jac_ok = _contracted_jacobians(
            [sys.jacobians[u - 1] for u in used], X, g)
        df = w @ f.swapaxes(1, 2)  # W_a . f_b, (k, U, U)
    return f, df[:, j, i] - df[:, i, j], jac_ok


def _contracted_jacobians(jacs, X, g):
    """``(W, jac_ok)``: ``W[r, a] = g[r]^T Df_a(X[r])`` of shape (k, U, n)
    for the U Jacobians ``jacs``, zero at the rows where one is not finite,
    and the mask ``jac_ok`` of the other rows.

    Each Jacobian's block result is taken once and never stacked with the
    others.  One broadcast over the block (leading stride 0, as a constant
    Jacobian returns it) is one matrix: its ``W_a`` is one (k, n) @ (n, n)
    product, and the finiteness check looks at that matrix alone, so a
    non-finite one fails every row.  That product may round differently
    from one point's (measured: up to 3.6e-15 on a dense 10 x 10 matrix);
    it is exact when every column has at most one nonzero entry, as in
    brockett10.  Any other result is contracted point by point; at one
    point the U Jacobians are stacked into one product, which rounds as U
    separate ones do.
    """
    if len(X) == 1:
        d = np.array([[jac(X[0]) for jac in jacs]], dtype=float)
        ok = np.isfinite(d).all(axis=(1, 2, 3))
        return ((g[:, None, None] @ d)[:, :, 0] if ok[0]
                else np.zeros(d.shape[:3])), ok
    w = np.empty((len(X), len(jacs), X.shape[1]))
    jac_ok = np.ones(len(X), dtype=bool)
    for a, jac in enumerate(jacs):
        d = _block.rows(jac, X)
        if d.strides[0] == 0:
            d = d[:1]
        if not np.isfinite(d).all():
            ok = np.isfinite(d).all(axis=(1, 2))
            jac_ok &= ok
            d = np.where(ok[:, None, None], d, 0.0)
        if len(d) == 1:
            w[:, a] = g @ d[0]
        else:
            # contiguous, as one point's result is, so rows round alike
            w[:, a] = (g[:, None] @ np.ascontiguousarray(d))[:, 0]
    if not jac_ok.all():
        # keep the bad points out of the algebra, as the check does per point
        w[~jac_ok] = 0.0
    return w, jac_ok


def _bracket_columns(sys: VectorFieldSystem, x) -> np.ndarray:
    """Field columns, then bracket columns in pair order: (n, n) at one
    state of floats or duals, each pair's from its own two fields and
    Jacobians; (k, n, n) at a (k, n) float block, from one evaluation of
    each (:func:`_pair_brackets`).  Raises ``ValueError(JACOBIAN_ERROR)``
    at a non-finite float Jacobian."""
    if np.ndim(x) == 2:
        f = _block.stacked(sys.fields, x)
        _, b, jac_ok = _pair_brackets(sys, x, f)
        if not jac_ok.all():
            raise ValueError(JACOBIAN_ERROR)
        return np.concatenate((f, b), axis=1).swapaxes(1, 2)
    x = _check_point(sys, x)
    cols = [f(x) for f in sys.fields]
    for i, j in sys.pairs:
        fi, fj = sys.field(i, x), sys.field(j, x)
        dfi, dfj = sys.jacobian(i, x), sys.jacobian(j, x)
        if x.dtype != object and not (np.all(np.isfinite(dfi))
                                      and np.all(np.isfinite(dfj))):
            raise ValueError(JACOBIAN_ERROR)
        cols.append(dfj @ fi - dfi @ fj)
    return np.column_stack(cols)


def _condition_1norm(mat: np.ndarray) -> float:
    """Exact 1-norm condition number ``||F||_1 ||F^-1||_1`` (largest column
    sums) of a square matrix, bit for bit ``np.linalg.cond(mat, 1)``;
    ``inf`` when it is singular or has a non-finite entry."""
    if not np.all(np.isfinite(mat)):
        return float("inf")
    try:
        cond = (float(np.abs(mat).sum(axis=0).max())
                * float(np.abs(np.linalg.inv(mat)).sum(axis=0).max()))
    except np.linalg.LinAlgError:
        return float("inf")
    return float("inf") if math.isnan(cond) else cond


def bracket_generating_check(sys: VectorFieldSystem, x):
    """Spanning test for the field-plus-bracket columns at ``x``.

    Passes iff every singular value of the bracket matrix exceeds
    ``SPAN_TOL`` (1e-10) times the largest one; returns the verdict and the
    smallest singular value.  Singular values make the test insensitive to
    the column scaling that bracket columns typically carry.  A (k, n)
    block of states gives a bool array and a float array of length ``k``,
    bit for bit the per-row results: the (k, n, n) stack of bracket
    matrices comes from one pass of :func:`_bracket_columns` over the whole
    block, and one batched SVD.  One state runs as a block of one.
    """
    x = _check_point(sys, np.asarray(x, dtype=float), block=True)
    svals = np.linalg.svd(_bracket_columns(sys, np.atleast_2d(x)),
                          compute_uv=False)
    good, smin = svals[:, -1] > SPAN_TOL * svals[:, 0], svals[:, -1]
    if x.ndim == 2:
        return good, smin
    return bool(good[0]), float(smin[0])

