"""Shared fixtures: reference systems, finite-difference oracles, run cache."""

import os

# one BLAS thread unless the caller chose otherwise: on a busy host the worker
# threads of OpenBLAS stall the suite's many small products.  The variables
# are read when numpy loads, so they are set before the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from oscstab import _fastpath, integrator, lyapunov
from oscstab import brockett as bk
from oscstab.integrator import integrate_classical, integrate_sampled
from oscstab.vecfield import VectorFieldSystem


# --- small reference systems --------------------------------------------------

def _dt(x):
    return object if getattr(x, "dtype", None) == object else float


def heis3_system() -> VectorFieldSystem:
    """Three-state unicycle-like integrator: one bracket pair, [f1,f2] = 2 e3."""

    def f1(x):
        return np.array([1.0, 0.0, -x[1]], dtype=_dt(x))

    def f2(x):
        return np.array([0.0, 1.0, x[0]], dtype=_dt(x))

    j1 = np.zeros((3, 3))
    j1[2, 1] = -1.0
    j2 = np.zeros((3, 3))
    j2[2, 0] = 1.0
    return VectorFieldSystem(n=3, m=2, fields=(f1, f2),
                             jacobians=(lambda x: j1, lambda x: j2),
                             pairs=((1, 2),), name="heis3")


def per_point(fn):
    """``fn`` restricted to one state at a time: a block of states raises, so
    the block probe (``oscstab._block``) keeps ``fn`` on the per-point path
    and no block call reaches ``fn``."""
    def one_state(x):
        if np.ndim(x) != 1:
            raise ValueError("one state at a time")
        return fn(x)
    return one_state


def const_fields_system() -> VectorFieldSystem:
    """Constant input fields, zero bracket; not bracket generating."""
    z = np.zeros((3, 3))
    return VectorFieldSystem(
        n=3, m=2,
        fields=(lambda x: np.array([1.0, 0.0, 0.0]),
                lambda x: np.array([0.0, 1.0, 0.0])),
        jacobians=(lambda x: z, lambda x: z),
        pairs=((1, 2),), name="const3")


def merging_fields_system() -> VectorFieldSystem:
    """Fields independent at the origin that coincide at x = e1."""

    def f1(x):
        return np.array([1.0, 0.0, 0.0])

    def f2(x):
        return np.array([x[0], 1.0 - x[0], 0.0])

    j2 = np.zeros((3, 3))
    j2[0, 0] = 1.0
    j2[1, 0] = -1.0
    return VectorFieldSystem(
        n=3, m=2, fields=(f1, f2),
        jacobians=(lambda x: np.zeros((3, 3)), lambda x: j2),
        pairs=((1, 2),), name="merge3")


def random_polynomial_system(seed: int = 20240) -> VectorFieldSystem:
    """Two quadratic fields on R^3 with seeded coefficients and analytic
    Jacobians (written dual-compatible)."""
    rng = np.random.default_rng(seed)
    # f_k(x) = b + A x + 0.5 * x^T Q x per coordinate, small coefficients
    params = []
    for k in range(2):
        b = rng.uniform(-1, 1, 3)
        a = rng.uniform(-1, 1, (3, 3)) * 0.5
        q = rng.uniform(-1, 1, (3, 3, 3)) * 0.2
        q = 0.5 * (q + np.transpose(q, (0, 2, 1)))  # symmetric in the x-slots
        params.append((b, a, q))
    # keep the origin columns independent
    params[0][0][:] = (1.0, 0.2, -0.3)
    params[1][0][:] = (0.1, 1.0, 0.4)

    def make_field(b, a, q):
        def f(x):
            out = []
            for r in range(3):
                acc = b[r]
                for c in range(3):
                    acc = acc + a[r, c] * x[c]
                    for d in range(3):
                        acc = acc + 0.5 * q[r, c, d] * x[c] * x[d]
                out.append(acc)
            return np.array(out, dtype=_dt(x))
        return f

    def make_jac(b, a, q):
        def jac(x):
            rows = []
            for r in range(3):
                row = []
                for c in range(3):
                    acc = a[r, c]
                    for d in range(3):
                        acc = acc + q[r, c, d] * x[d]
                    row.append(acc)
                rows.append(row)
            return np.array(rows, dtype=_dt(x))
        return jac

    return VectorFieldSystem(
        n=3, m=2,
        fields=tuple(make_field(*p) for p in params),
        jacobians=tuple(make_jac(*p) for p in params),
        pairs=((1, 2),), name="poly3")


# --- per-pair reference brackets ----------------------------------------------

def ref_bracket(sys_, i: int, j: int, x) -> np.ndarray:
    """``Df_j f_i - Df_i f_j`` at one state (1-based indices), from the two
    fields and Jacobians alone."""
    return (sys_.jacobian(j, x) @ sys_.field(i, x)
            - sys_.jacobian(i, x) @ sys_.field(j, x))


def ref_bracket_matrix(sys_, x) -> np.ndarray:
    """Field columns, then the reference brackets in pair order, at one
    state."""
    return np.column_stack(
        [sys_.field(k, x) for k in range(1, sys_.m + 1)]
        + [ref_bracket(sys_, i, j, x) for i, j in sys_.pairs])


# --- finite-difference oracles (independent of the analytic path) -------------

def fd_jacobian(f, x, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    cols = []
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2 * h))
    return np.column_stack(cols)


def fd_bracket(fa, fb, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Lie bracket of two field closures."""
    return fd_jacobian(fb, x, h) @ np.asarray(fa(x), dtype=float) \
        - fd_jacobian(fa, x, h) @ np.asarray(fb(x), dtype=float)


# solver_path of a law the compiled kernel does not run
GENERIC_PATH = "generic (not the case-study closed-form law)"


def generic(law):
    """``law`` with its components wrapped in a lambda: another callable, so
    :func:`oscstab._fastpath.closed_form_exponent` does not recognise it and
    the law runs on the generic stepper (``GENERIC_PATH``) with the same
    controls."""
    c = law.components
    return dataclasses.replace(law, components=lambda x: c(x))


# compiled-path tests need a compiler; a failed build with one present fails
needs_cc = pytest.mark.skipif(_fastpath.find_compiler() is None,
                              reason="no C compiler (cc, gcc) on PATH")


# block size of the tests that cross block boundaries: small enough that
# their samples of a few blocks, and the per-point references they are
# checked against, stay cheap
SMALL_BLOCK = 256


@pytest.fixture
def small_blocks(monkeypatch):
    """Scans and block certificates in blocks of ``SMALL_BLOCK`` points
    for one test."""
    monkeypatch.setattr(lyapunov, "BLOCK", SMALL_BLOCK)
    return SMALL_BLOCK


@pytest.fixture
def probe_runs(monkeypatch):
    """``(T, substeps, end state)`` of every integration the order probe
    runs, recorded for one test."""
    runs = []

    def spy(sys_, law, x0, T, substeps):
        traj = integrate_classical(sys_, law, x0, T=T, substeps=substeps)
        runs.append((T, substeps, traj.states[-1]))
        return traj

    monkeypatch.setattr(integrator, "integrate_classical", spy)
    return runs


# --- case-study fixtures -------------------------------------------------------

X0_LEFT = np.array(bk.PRESETS["fig1-left"]["x0"], dtype=float)
X0_RIGHT = np.array(bk.PRESETS["fig1-right"]["x0"], dtype=float)


@pytest.fixture(scope="session")
def bsys():
    return bk.brockett_system()


@pytest.fixture(scope="session")
def lyap_p1():
    return bk.brockett_lyapunov(1.0)


@pytest.fixture(scope="session")
def lyap_p15():
    return bk.brockett_lyapunov(1.5)


@pytest.fixture(scope="session")
def law_p1():
    return bk.brockett_law(1.0, 0.5, 0.1)


@pytest.fixture(scope="session")
def law_p15():
    return bk.brockett_law(1.5, 0.5, 0.1)


@pytest.fixture(scope="session")
def paper_run(bsys):
    """Cached long-horizon runs of the published setups, keyed by
    (p, mode, substeps); shared by the reproduction and convergence tests."""
    cache = {}

    def get(p: float, mode: str, substeps: int):
        key = (p, mode, substeps)
        if key not in cache:
            lyap = bk.brockett_lyapunov(p)
            law = bk.brockett_law(p, 0.5, 0.1)
            x0 = X0_LEFT if p == 1.0 else X0_RIGHT
            integrate = integrate_classical if mode == "classical" else integrate_sampled
            cache[key] = integrate(bsys, law, x0, T=50.0, substeps=substeps,
                                   lyap=lyap)
        return cache[key]

    return get
