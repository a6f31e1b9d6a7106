"""Compiled trajectory kernel and CSV formatter.

The trajectory kernel integrates the ten-state case-study closed loop; it
exists only to make the long reproduction runs cheap.  It keeps the scheme,
the step plan and the blow-up guard of the generic stepper in
:mod:`oscstab.integrator` exactly, and raises ``|x_c|`` to the profile
exponent ``2p - 1`` on numpy's fast paths of ``**`` (``|x_c|`` for 1,
``x_c * x_c`` for 2; ``pow`` otherwise).  Its oscillators agree with the
generic path's only up to rounding: one sin and cos of the base phase
``omega t`` per stage time, raised to each pair's integer multiplier by
complex multiplication, in place of cos and sin of ``kappa omega t``.  The
states of the two paths differ by at most 2.3e-14 over T = 5 on the
published setups, both modes and a multiplier override (x86-64, glibc,
numpy 2.4.6); the test suite allows 1e-12.  The CSV formatter turns blocks of table rows into
the lines that :func:`oscstab.integrator._write_csv` writes, byte for byte as
Python's ``"%.17g" %`` prints them: values with a decimal exponent in
[-16, 16] are rounded exactly in 128-bit integer arithmetic (where the
compiler has it), all others go through the C library's ``snprintf``.

Both live in one C source in this module, compiled with the system C
compiler (``cc`` or ``gcc``) on first use, never at import, then loaded with
:mod:`ctypes`.  The shared library is cached per user in
``$XDG_CACHE_HOME/oscstab`` (else ``~/.cache/oscstab``) under a name keyed
on a hash of the source and the compiler flags, so a changed source never
loads a stale build.  When that directory cannot be written the process
builds into a temporary directory, removed once the library is loaded.
Without a compiler, or when the build fails, :func:`kernel` raises
:class:`KernelUnavailable` naming the reason; the integrator then keeps the
generic stepper and the Python CSV formatter, which give the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from typing import Callable, Optional, Tuple, Union

import numpy as np

BLOWUP_SQ = 1e12
# pair order of the case study; the kernel's bracket rows and input channels
# assume it
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
COMPILERS = ("cc", "gcc")
# no FMA contraction: keeps the arithmetic rounding like the numpy generic path
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LDLIBS = ("-lm",)

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define BLOWUP_SQ %(blowup)r

/* 0-based input channels i - 1 and j - 1 of each pair, in PAIRS order */
static const int I_IDX[6] = {0, 0, 0, 1, 1, 2};
static const int J_IDX[6] = {1, 2, 3, 2, 3, 3};

static double sgn(double v) { return v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : 0.0); }

/* a^e for a >= 0 on numpy's fast paths of `array ** e` for e = 1 and e = 2
   (the C library's pow(a, 2.0) differs from a * a in the last bit for some
   a); other exponents go to pow, where numpy's own vectorised pow may round
   differently */
static double power(double a, double e)
{
    return e == 1.0 ? a : (e == 2.0 ? a * a : pow(a, e));
}

/* cos at [q] and sin at [6 + q] of kappa_q omega t: one cos and sin (one
   sincos call once compiled) of the base phase omega t, and the integer
   power kappa_q of the unit complex number cos + i sin by binary powering */
static void oscillators(double t, double omega, const int64_t *kappas,
                        double *cs)
{
    const double th = omega * t, c1 = cos(th), s1 = sin(th);
    for (int q = 0; q < 6; ++q) {
        double c = 1.0, s = 0.0, bc = c1, bs = s1, tmp;
        for (int64_t k = kappas[q];;) {
            if (k & 1) {
                tmp = c * bc - s * bs;
                s = c * bs + s * bc;
                c = tmp;
            }
            if ((k >>= 1) == 0) break;
            tmp = bc * bc - bs * bs;
            bs = 2.0 * bc * bs;
            bc = tmp;
        }
        cs[q] = c;
        cs[6 + q] = s;
    }
}

/* control from the (possibly frozen) state xf and the oscillators cs at the
   stage time (cos at [q], sin at [6 + q]), fields from x.  The split factors
   of the profiles at xf go to vs (vi at [q], vj at [6 + q]) unless `held`:
   the later stages of a sampled window reuse those of its first.  e is the
   profile exponent 2p - 1. */
static void rhs(const double *x, const double *xf, int held, double e,
                double *vs, const double *cs, const double *gamma_amp,
                double *out)
{
    double u[4] = {-xf[0], -xf[1], -xf[2], -xf[3]};
    for (int q = 0; q < 6; ++q) {
        if (!held) {
            double xc = xf[4 + q];
            double vt = -0.5 * sgn(xc) * power(fabs(xc), e);
            vs[q] = sqrt(fabs(vt));
            vs[6 + q] = vs[q] * sgn(vt);
        }
        u[I_IDX[q]] += gamma_amp[q] * vs[q] * cs[q];
        u[J_IDX[q]] += gamma_amp[q] * vs[6 + q] * cs[6 + q];
    }
    for (int d = 0; d < 4; ++d) out[d] = u[d];
    for (int q = 0; q < 6; ++q)
        out[4 + q] = x[I_IDX[q]] * u[J_IDX[q]] - x[J_IDX[q]] * u[I_IDX[q]];
}

/* RK4 over J windows of `substeps` steps; xs holds J*substeps+1 rows of 10.
   Stages 2 and 3 share their time, so the oscillators are evaluated at three
   times per step.  Returns the number of valid rows (fewer on blow-up). */
int64_t brockett_trajectory(const double *x0, int64_t J, int64_t substeps,
                            double h, double p, const int64_t *kappas,
                            double omega, const double *gamma_amp,
                            int sampled, double *xs)
{
    const int64_t K = J * substeps + 1;
    const double e = 2.0 * p - 1.0;
    double x[10], xf[10], xt[10], k1[10], k2[10], k3[10], k4[10];
    double vs[12], cs[3][12];
    for (int d = 0; d < 10; ++d) {
        x[d] = xf[d] = xs[d] = x0[d];
    }
    for (int64_t step = 0; step < K - 1; ++step) {
        const int start = step %% substeps == 0;
        if (sampled && start)
            for (int d = 0; d < 10; ++d) xf[d] = x[d];
        double t = step * h, ts[3] = {t, t + 0.5 * h, t + h};
        for (int k = 0; k < 3; ++k)
            oscillators(ts[k], omega, kappas, cs[k]);
        rhs(x, sampled ? xf : x, sampled && !start, e, vs, cs[0], gamma_amp, k1);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + 0.5 * h * k1[d];
        rhs(xt, sampled ? xf : xt, sampled, e, vs, cs[1], gamma_amp, k2);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + 0.5 * h * k2[d];
        rhs(xt, sampled ? xf : xt, sampled, e, vs, cs[1], gamma_amp, k3);
        for (int d = 0; d < 10; ++d) xt[d] = x[d] + h * k3[d];
        rhs(xt, sampled ? xf : xt, sampled, e, vs, cs[2], gamma_amp, k4);
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

# longest "%.17g" text of a double ("-2.2250738585072014e-308") plus the
# comma or newline after it
CSV_FIELD_BYTES = 25

_WRITER_SOURCE = r"""
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* the C library's "%.17g", with a locale's decimal comma as a point */
static int fmt_libc(double v, char *out)
{
    char tmp[32];
    int n = snprintf(tmp, sizeof tmp, "%.17g", v);
    for (int i = 0; i < n; ++i) out[i] = tmp[i] == ',' ? '.' : tmp[i];
    return n;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define P5(hi, lo) (((u128)(hi) << 64) | (u128)(lo))
static const u128 POW5[33] = {
POW5_TABLE
};

/* 17 significant digits of a normal |v| with decimal exponent in [-16, 16],
   rounded half to even, as "%.17g" lays them out; -1 for any other v */
static int fmt_exact(uint64_t bits, char *out)
{
    const int bexp = (int)((bits >> 52) & 0x7ff);
    if (bexp == 0 || bexp == 0x7ff) return -1;   /* subnormal or inf */
    const uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    const int e = bexp - 1075;                   /* |v| = m 2^e */
    /* floor(log10 2^(bexp - 1023)): the decimal exponent or one less */
    int x = (int)((bexp - 1023) * 0.30102999566398120 + 1000.0) - 1000;
    uint64_t d;
    for (;;) {
        const int k = 16 - x;
        if (k < 0 || k > 32) return -1;
        const u128 p = (u128)m * POW5[k];        /* |v| 10^k = p 2^(e+k) */
        const int s = -(e + k);
        u128 q = s <= 0 ? p << -s : p >> s;
        if (q >= (u128)100000000000000000ULL) { ++x; continue; }
        d = (uint64_t)q;
        if (s > 0) {
            const u128 r = p & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
            d += r > half || (r == half && (d & 1));
        }
        break;
    }
    if (d == 100000000000000000ULL) {            /* rounded up a decade */
        d /= 10;
        if (++x > 16) return -1;
    }
    char dig[17];
    for (int i = 16; i >= 0; --i) { dig[i] = (char)('0' + d % 10); d /= 10; }
    int nd = 17;
    while (dig[nd - 1] == '0') --nd;
    char *o = out;
    if (x < -4) {                                /* d.ddde-XX */
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = '-';
        *o++ = (char)('0' + -x / 10);
        *o++ = (char)('0' + -x % 10);
    } else if (x < 0) {                          /* 0.000ddd */
        *o++ = '0';
        *o++ = '.';
        for (int i = -1; i > x; --i) *o++ = '0';
        memcpy(o, dig, nd);
        o += nd;
    } else {                                     /* ddd.ddd */
        memcpy(o, dig, x + 1);
        o += x + 1;
        if (nd > x + 1) {
            *o++ = '.';
            memcpy(o, dig + x + 1, nd - x - 1);
            o += nd - x - 1;
        }
    }
    return (int)(o - out);
}
#endif

/* "%.17g" of v as Python prints it: nan is unsigned, -0.0 is "-0" */
static int fmt17g(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (v != v) {
        memcpy(out, "nan", 3);
        return 3;
    }
    int sign = (int)(bits >> 63);
    if (sign) *out = '-';
    if (v == 0.0) {
        out[sign] = '0';
        return sign + 1;
    }
#ifdef __SIZEOF_INT128__
    int n = fmt_exact(bits, out + sign);
    if (n >= 0) return sign + n;
#endif
    return fmt_libc(v, out);
}

/* rows x cols doubles (row major) as CSV lines; buf holds at least
   rows * (cols * CSV_FIELD_BYTES + 1) bytes, CSV_FIELD_BYTES being the
   Python constant.  Returns the bytes written. */
int64_t format_csv(const double *table, int64_t rows, int64_t cols, char *buf)
{
    char *o = buf;
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t c = 0; c < cols; ++c) {
            if (c) *o++ = ',';
            o += fmt17g(table[i * cols + c], o);
        }
        *o++ = '\n';
    }
    return (int64_t)(o - buf);
}
""".replace(
    "POW5_TABLE", ",\n".join(
        f"    P5({5 ** k >> 64:#x}ULL, {5 ** k % 2 ** 64:#x}ULL)"
        for k in range(33)))

SOURCE = _KERNEL_SOURCE + _WRITER_SOURCE


class KernelUnavailable(RuntimeError):
    """The compiled library cannot be built or loaded; the message says why."""


_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")

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
                   ctypes.c_double, _I64, ctypes.c_double, _F64, ctypes.c_int,
                   _F64]
    fn.restype = ctypes.c_int64
    fn = lib.format_csv
    fn.argtypes = [_F64, ctypes.c_int64, ctypes.c_int64, _U8]
    fn.restype = ctypes.c_int64
    return lib


def kernel() -> ctypes.CDLL:
    """The loaded library (trajectory kernel and CSV formatter), built on
    the first call of the process.

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


def brockett_trajectory(sys, law, x0, J, substeps, h,
                        sampled) -> Tuple[np.ndarray, int]:
    """RK4 states of the case-study closed loop, ``(states, n_valid)``, as
    the generic stepper of :mod:`oscstab.integrator` gives them up to the
    rounding of the oscillators (see the module docstring).

    ``states`` has ``J * substeps + 1`` rows; only the first ``n_valid`` are
    meaningful (fewer than all when the norm squared passed ``BLOWUP_SQ``
    or an entry went non-finite).  ``law.kernel_p`` is the candidate
    exponent of the closed-form profiles.  Raises
    :class:`KernelUnavailable` naming why the kernel declines: a system
    that is not the case study's, no compiler or a failed build.
    """
    if sys.n != 10 or sys.m != 4 or sys.pairs != PAIRS:
        raise KernelUnavailable(
            "the law's system is not the ten-state case study")
    lib = kernel()
    J, substeps = int(J), int(substeps)
    if J < 1 or substeps < 1:
        raise ValueError("need J >= 1 and substeps >= 1")
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.shape != (10,):
        raise ValueError(f"x0 must have shape (10,), got {x0.shape}")
    a = law.assignment
    # the gain times each pair's oscillator amplitude
    gamma_amp = law.gamma * np.array([a.amplitude(q)
                                      for q in range(len(a.pairs))])
    xs = np.empty((J * substeps + 1, 10))
    n_valid = lib.brockett_trajectory(x0, J, substeps, float(h),
                                      float(law.kernel_p),
                                      np.array(a.kappas, dtype=np.int64),
                                      a.omega, gamma_amp, int(bool(sampled)),
                                      xs)
    return xs, int(n_valid)


def csv_formatter(max_rows: int, cols: int) -> Callable[[np.ndarray], np.ndarray]:
    """A formatter of C-contiguous float64 blocks of at most ``max_rows``
    rows of ``cols`` columns: it returns their CSV lines, ``"%.17g"``
    comma-joined and LF terminated as Python's ``%`` operator prints them.

    Every call returns a byte-array view of one buffer, sized once for
    ``max_rows`` rows, that the next call overwrites.  Raises
    :class:`KernelUnavailable` here, before any block, when the library
    cannot be had.
    """
    fmt = kernel().format_csv
    buf = np.empty(max_rows * (cols * CSV_FIELD_BYTES + 1), dtype=np.uint8)

    def format_block(block: np.ndarray) -> np.ndarray:
        if block.shape[0] > max_rows or block.shape[1:] != (cols,):
            raise ValueError(f"block {block.shape} exceeds ({max_rows}, {cols})")
        return buf[:fmt(block, block.shape[0], cols, buf)]

    return format_block
