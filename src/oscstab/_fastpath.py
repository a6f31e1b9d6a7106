"""Compiled trajectory kernel for the ten-state case-study closed loop.

The kernel mirrors the generic stepper in :mod:`oscstab.integrator` exactly
(same scheme, same step plan, same blow-up guard); it exists only to make the
long reproduction runs cheap.  Its C source lives in this module and is
compiled with the system C compiler (``cc`` or ``gcc``) on first use, never at
import, then loaded with :mod:`ctypes`.  The shared library is cached per user
in ``$XDG_CACHE_HOME/oscstab`` (else ``~/.cache/oscstab``) under a name keyed
on a hash of the source and the compiler flags, so a changed kernel never
loads a stale build.  When that directory cannot be written the process
builds into a temporary directory, removed once the library is loaded.
Without a compiler, or when the build fails, :func:`kernel` raises
:class:`KernelUnavailable` naming the reason and the integrator keeps the
generic path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple, Union

import numpy as np

BLOWUP_SQ = 1e12
# pair order of the case study; the kernel's bracket rows and input channels
# assume it
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
COMPILERS = ("cc", "gcc")
# no FMA contraction: keeps the arithmetic rounding like the numpy generic path
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LDLIBS = ("-lm",)

SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define BLOWUP_SQ %(blowup)r

/* 0-based input channels i - 1 and j - 1 of each pair, in PAIRS order */
static const int I_IDX[6] = {0, 0, 0, 1, 1, 2};
static const int J_IDX[6] = {1, 2, 3, 2, 3, 3};

static double sgn(double v) { return v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : 0.0); }

/* control from the (possibly frozen) state xf, fields from x */
static void rhs(const double *x, const double *xf, double t, double p,
                const double *kw, const double *gamma_amp, double *out)
{
    double u[4] = {-xf[0], -xf[1], -xf[2], -xf[3]};
    for (int q = 0; q < 6; ++q) {
        double xc = xf[4 + q];
        double vt = -0.5 * sgn(xc) * pow(fabs(xc), 2.0 * p - 1.0);
        double vi = sqrt(fabs(vt));
        double vj = vi * sgn(vt);
        double th = kw[q] * t;
        u[I_IDX[q]] += gamma_amp[q] * vi * cos(th);
        u[J_IDX[q]] += gamma_amp[q] * vj * sin(th);
    }
    out[0] = u[0];
    out[1] = u[1];
    out[2] = u[2];
    out[3] = u[3];
    out[4] = x[0] * u[1] - x[1] * u[0];
    out[5] = x[0] * u[2] - x[2] * u[0];
    out[6] = x[0] * u[3] - x[3] * u[0];
    out[7] = x[1] * u[2] - x[2] * u[1];
    out[8] = x[1] * u[3] - x[3] * u[1];
    out[9] = x[2] * u[3] - x[3] * u[2];
}

/* RK4 over J windows of `substeps` steps; xs holds J*substeps+1 rows of 10.
   Returns the number of valid rows (fewer on blow-up). */
int64_t brockett_trajectory(const double *x0, int64_t J, int64_t substeps,
                            double h, double p, const double *kw,
                            const double *gamma_amp, int sampled, double *xs)
{
    const int64_t K = J * substeps + 1;
    double x[10], xf[10], xt[10], k1[10], k2[10], k3[10], k4[10];
    for (int d = 0; d < 10; ++d) {
        x[d] = xf[d] = xs[d] = x0[d];
    }
    for (int64_t step = 0; step < K - 1; ++step) {
        if (sampled && step %% substeps == 0)
            for (int d = 0; d < 10; ++d) xf[d] = x[d];
        double t = step * h;
        rhs(x, sampled ? xf : x, t, p, kw, gamma_amp, k1);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + 0.5 * h * k1[d];
        rhs(xt, sampled ? xf : xt, t + 0.5 * h, p, kw, gamma_amp, k2);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + 0.5 * h * k2[d];
        rhs(xt, sampled ? xf : xt, t + 0.5 * h, p, kw, gamma_amp, k3);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + h * k3[d];
        rhs(xt, sampled ? xf : xt, t + h, p, kw, gamma_amp, k4);
        double nrm = 0.0;
        int ok = 1;
        double *row = xs + 10 * (step + 1);
        for (int d = 0; d < 10; ++d) {
            x[d] = x[d] + (h / 6.0) * (k1[d] + 2.0 * k2[d] + 2.0 * k3[d] + k4[d]);
            nrm += x[d] * x[d];
            if (!isfinite(x[d])) ok = 0;
            row[d] = x[d];
        }
        if (!ok || nrm > BLOWUP_SQ) return step + 2;
    }
    return K;
}
""" % {"blowup": BLOWUP_SQ}


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded; the message says why."""


_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")

# the loaded library, or the reason it could not be had (tried once a process)
_kernel: Union[ctypes.CDLL, str, None] = None


def cache_dir() -> str:
    """Per-user directory that holds built kernels."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "oscstab")


def library_name() -> str:
    key = "\0".join((SOURCE, *CFLAGS, *LDLIBS, platform.machine()))
    return f"brockett_kernel-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def find_compiler() -> Optional[str]:
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _compile(cc: str, outdir: str, target: str) -> None:
    """Build into a temporary file in ``outdir`` and move it into place
    atomically, so a concurrent loader never sees a partial library."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=outdir)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-x", "c", "-", "-o", tmp, *LDLIBS],
                input=SOURCE, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise KernelUnavailable(f"build failed: {cc}: {exc}") from exc
        if proc.returncode != 0:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            raise KernelUnavailable(
                f"build failed: {cc} exited with {proc.returncode}"
                + (f": {lines[-1]}" if lines else ""))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load() -> ctypes.CDLL:
    name = library_name()
    cached = os.path.join(cache_dir(), name)
    if not os.path.exists(cached):
        cc = find_compiler()
        if cc is None:
            raise KernelUnavailable(
                f"no compiler: none of {', '.join(COMPILERS)} on PATH")
        try:
            os.makedirs(cache_dir(), exist_ok=True)
            _compile(cc, cache_dir(), cached)
        except OSError:
            # cache not writable: build for this process only; the mapping
            # survives removing the directory once the library is loaded
            tmpdir = tempfile.mkdtemp(prefix="oscstab-kernel-")
            try:
                path = os.path.join(tmpdir, name)
                _compile(cc, tmpdir, path)
                return _load(path)
            finally:
                shutil.rmtree(tmpdir, ignore_errors=True)
    return _load(cached)


def _load(path: str) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise KernelUnavailable(f"build failed: cannot load {path}: {exc}") from exc
    fn = lib.brockett_trajectory
    fn.argtypes = [_F64, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
                   ctypes.c_double, _F64, _F64, ctypes.c_int, _F64]
    fn.restype = ctypes.c_int64
    return lib


def kernel() -> ctypes.CDLL:
    """The loaded kernel library, built on the first call of the process.

    Raises :class:`KernelUnavailable` when no compiler is found or the build
    fails; the outcome is kept, so later calls raise again without retrying.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build_and_load()
        except KernelUnavailable as exc:
            _kernel = str(exc)
    if isinstance(_kernel, str):
        raise KernelUnavailable(_kernel)
    return _kernel


def _vec(a, dtype, size: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {out.shape}")
    return out


def brockett_trajectory(x0, J, substeps, h, p, kw, gamma_amp,
                        sampled) -> Tuple[np.ndarray, int]:
    """RK4 states of the case-study loop, ``(states, n_valid)``.

    ``states`` has ``J * substeps + 1`` rows; only the first ``n_valid`` are
    meaningful (fewer than all when the norm squared passed 1e12 or an entry
    went non-finite).  ``gamma_amp`` holds the gain times each pair's
    oscillator amplitude.
    """
    lib = kernel()
    J, substeps = int(J), int(substeps)
    if J < 1 or substeps < 1:
        raise ValueError("need J >= 1 and substeps >= 1")
    x0 = _vec(x0, np.float64, 10, "x0")
    kw = _vec(kw, np.float64, 6, "kw")
    gamma_amp = _vec(gamma_amp, np.float64, 6, "gamma_amp")
    xs = np.empty((J * substeps + 1, 10))
    n_valid = lib.brockett_trajectory(x0, J, substeps, float(h), float(p), kw,
                                      gamma_amp, int(bool(sampled)), xs)
    return xs, int(n_valid)


def closed_loop(sys, law, x0, J, substeps, h,
                sampled) -> Tuple[np.ndarray, int]:
    """Closed-loop states from the kernel, ``(states, n_valid)`` exactly like
    the generic stepper of :mod:`oscstab.integrator`.

    ``law.kernel_p`` is the candidate exponent of the closed-form profiles.
    Raises :class:`KernelUnavailable` naming why the kernel declines: a
    system that is not the case study's, no compiler or a failed build.
    """
    if sys.n != 10 or sys.m != 4 or sys.pairs != PAIRS:
        raise KernelUnavailable(
            "the law's system is not the ten-state case study")
    a = law.assignment
    kap = np.array(a.kappas, dtype=float)
    kw = kap * a.omega
    gamma_amp = law.gamma * 2.0 * np.sqrt(kap * np.pi / a.eps)
    return brockett_trajectory(np.asarray(x0, dtype=float), J, substeps, h,
                               float(law.kernel_p), kw, gamma_amp,
                               bool(sampled))
