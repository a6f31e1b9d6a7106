"""Block evaluation of the user callables.

Fields, Jacobians, ``FeedbackLaw.components``/``components_jac`` and
``LyapunovSpec.v``/``grad`` take one state of shape (n,); any of them may
also take a (k, n) float block and return its per-row results stacked along
a new leading axis (a tuple result entry by entry).  :func:`probe` finds out
which do, once, when the system, law or candidate is built: the callable runs
on a small fixed block with ``k != n`` and on each of its rows, and passes
only if the block call neither raises nor warns and matches the stacked rows
in shape and within ``1e-12 * max(1, |value|)``.  :func:`rows` calls one that
passed once per block and any other once per row, as for states of duals.
Verdicts are remembered per callable, so rebuilding around the same callables
(``dataclasses.replace``, ``law_with_period``) does not probe again; one that
cannot be weakly referenced or hashed is not remembered and runs per row.
"""

from __future__ import annotations

import warnings
import weakref

import numpy as np

__all__ = ["probe", "blockwise", "rows", "stacked"]

# agreement a block result needs with the stacked per-point results
TOL = 1e-12

# callable -> {state dimension: verdict}
_VERDICTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _probe_block(n: int) -> np.ndarray:
    """Fixed (k, n) block with ``k != n``, entries in (-1, 1) none zero and
    no two rows alike, so that indexing ``x[i]`` (a row of a block) fails."""
    k = 3 if n == 2 else 2
    return 0.9 * np.sin(1.0 + np.arange(k * n, dtype=float)).reshape(k, n)


def _stack(outs):
    if isinstance(outs[0], tuple):
        return tuple(np.array(a, dtype=float) for a in zip(*outs))
    return np.array(outs, dtype=float)


def _agree(got, want) -> bool:
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(map(_agree, got, want)))
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))))


def probe(fn, n: int, X=None, ref=None) -> bool:
    """Whether ``fn`` evaluates (k, n) float blocks, probing it at most once.

    ``X`` replaces the fixed probe block, and ``ref``, the per-point results
    at its rows, saves calling ``fn`` on them.  The block call comes first,
    so a per-point-only callable costs one failed call.
    """
    try:
        done = _VERDICTS.setdefault(fn, {})
    except TypeError:
        return False
    if n not in done:
        X = _probe_block(n) if X is None else X
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fn(X)
                done[n] = _agree(got, _stack(
                    [fn(x) for x in X] if ref is None else ref))
        except Exception:     # whatever a user callable raises fails it
            done[n] = False
    return done[n]


def blockwise(fn, n: int) -> bool:
    """Whether ``fn`` passed its probe at dimension ``n``."""
    try:
        return _VERDICTS.get(fn, {}).get(n, False)
    except TypeError:
        return False


def rows(fn, X: np.ndarray):
    """``fn`` at every row of the float block ``X``, stacked: one call when
    ``fn`` passed its probe and ``X`` has several rows, else one per row."""
    if len(X) > 1 and blockwise(fn, X.shape[1]):
        out = fn(X)
        if isinstance(out, tuple):
            return tuple(np.asarray(a, dtype=float) for a in out)
        return np.asarray(out, dtype=float)
    return _stack([fn(x) for x in X])


def stacked(fns, X: np.ndarray) -> np.ndarray:
    """:func:`rows` of each of ``fns``, stacked along axis 1 into one fresh,
    writable, C-contiguous array of shape (k, len(fns), ...).

    On a block with a callable that passed its probe, the output is
    allocated once and each callable's rows are assigned into its slot, so
    a result that is a view (a read-only broadcast, say) is copied once and
    never shared.  The contracted bracket algebra of the scans does not
    stack Jacobians: it takes each one's :func:`rows` and contracts a
    broadcast constant as one matrix (``vecfield._contracted_jacobians``).
    """
    if len(X) > 1 and any(blockwise(fn, X.shape[1]) for fn in fns):
        out = None
        for c, fn in enumerate(fns):
            r = rows(fn, X)
            if out is None:
                out = np.empty((len(X), len(fns)) + r.shape[1:])
            out[:, c] = r
        return out
    return np.array([[fn(x) for fn in fns] for x in X], dtype=float)
