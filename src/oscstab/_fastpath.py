"""Compiled trajectory kernel, CSV formatter, normal quantiles and
oscillator quadrature.

The trajectory kernel integrates the ten-state case-study closed loop; it
exists only to make the long reproduction runs cheap.  It hard-codes that
one model and law, which :func:`closed_form_exponent` recognises.  It keeps
the scheme, the step plan and the blow-up guard of the generic stepper in
:mod:`oscstab.integrator` exactly, and raises ``|x_c|`` to the profile
exponent ``2p - 1`` on numpy's fast paths of ``**`` (``|x_c|`` for 1,
``x_c * x_c`` for 2; ``pow`` otherwise).  Its oscillators agree with the
generic path's only up to rounding: one sin and cos of the base phase
``omega t`` per stage time, raised to each pair's integer multiplier by
complex multiplication, in place of cos and sin of ``kappa omega t``.  The
states of the two paths differ by at most 2.3e-14 over T = 5 on the
published setups, both modes and a multiplier override (x86-64, glibc,
numpy 2.4.6); the test suite allows 1e-12.

The CSV formatter turns blocks of table rows into the lines that
:func:`oscstab.integrator._write_csv` writes, byte for byte as Python's
``"%.17g" %`` prints them.  Values with a decimal exponent in [-16, 16]
take an exact integer path where the compiler has 128-bit integers: the
exponent comes from a table per binary exponent (:data:`DECIMAL_EXPONENTS`)
and one compare of the mantissa; the 17 digits come from one 128-bit
product, rounded half to even without a branch and emitted as 1 + 8 + 8
through a two-digit table; fixed-length copies lay out the text and may
write past it into the buffer's tail slack (:data:`CSV_SLACK_BYTES`).  That
takes 33-34 ns a value on a 1201 x 13 table where the previous
digit-by-digit loop took 71-77 ns (Intel Xeon, 2 vCPUs, gcc 12.2 ``-O2``).
All other values go through the C library's ``snprintf``.

The normal quantiles (:func:`normal_quantiles`) are Cephes' ``ndtri``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989), which
scipy ships as ``scipy.special.ndtri``: the same three rational
approximations, split at ``y = exp(-2)`` and at ``x = 8``, and the C
library's ``log``, so they give scipy's bits (x86-64, glibc, scipy 1.17.1:
10^7 uniforms, both tails down to ``exp(-34.5)`` and the split points'
neighbours).  The ball scans of :mod:`oscstab.sampling` take them from
here, so a process whose library loads never imports ``scipy.special``.  A
numpy port is not bit-exact: numpy's SIMD ``log`` rounds some values
differently from glibc's.

The oscillator quadrature (:func:`oscillator_quadrature`) gives
:func:`oscstab.integrator.coupling_matrix` its channels and their running
Simpson integrals with the bits of its numpy path: numpy's float64 ``cos``
and ``sin`` are the C library's here (x86-64, glibc 2.36, numpy 2.4.6), and
the Simpson terms take numpy's operations in numpy's order.

All four live in one C source in this module, compiled with the system C
compiler (``cc`` or ``gcc``) on first use, never at import, then loaded with
:mod:`ctypes`.  The shared library is cached per user in
``$XDG_CACHE_HOME/oscstab`` (else ``~/.cache/oscstab``) under a name keyed
on a hash of the source and the compiler flags, so a changed source never
loads a stale build.  When that directory cannot be written the process
builds into a temporary directory, removed once the library is loaded.
Without a compiler, or when the build fails, :func:`kernel` raises
:class:`KernelUnavailable` naming the reason; the integrator then keeps the
generic stepper and the Python CSV formatter, the ball scans import
``scipy.special.ndtri`` and the quadrature runs in numpy, which give the
same results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import tempfile
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import brockett

BLOWUP_SQ = 1e12
COMPILERS = ("cc", "gcc")
# no FMA contraction: keeps the arithmetic rounding like the numpy generic path
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LDLIBS = ("-lm",)

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define BLOWUP_SQ %(blowup)r

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
   profile exponent 2p - 1.  Pair q = (i, j) adds its terms to u_i and u_j,
   written out in brockett._PAIRS order (1, 2), (1, 3), ..., (3, 4). */
static void rhs(const double *x, const double *xf, int held, double e,
                double *vs, const double *cs, const double *gamma_amp,
                double *out)
{
    if (!held)
        for (int q = 0; q < 6; ++q) {
            double xc = xf[4 + q];
            double vt = -0.5 * sgn(xc) * power(fabs(xc), e);
            vs[q] = sqrt(fabs(vt));
            vs[6 + q] = vs[q] * sgn(vt);
        }
    const double *g = gamma_amp, *vi = vs, *vj = vs + 6, *c = cs, *s = cs + 6;
    double u0 = -xf[0], u1 = -xf[1], u2 = -xf[2], u3 = -xf[3];
    u0 += g[0] * vi[0] * c[0]; u1 += g[0] * vj[0] * s[0];
    u0 += g[1] * vi[1] * c[1]; u2 += g[1] * vj[1] * s[1];
    u0 += g[2] * vi[2] * c[2]; u3 += g[2] * vj[2] * s[2];
    u1 += g[3] * vi[3] * c[3]; u2 += g[3] * vj[3] * s[3];
    u1 += g[4] * vi[4] * c[4]; u3 += g[4] * vj[4] * s[4];
    u2 += g[5] * vi[5] * c[5]; u3 += g[5] * vj[5] * s[5];
    out[0] = u0; out[1] = u1; out[2] = u2; out[3] = u3;
    out[4] = x[0] * u1 - x[1] * u0; out[5] = x[0] * u2 - x[2] * u0;
    out[6] = x[0] * u3 - x[3] * u0; out[7] = x[1] * u2 - x[2] * u1;
    out[8] = x[1] * u3 - x[3] * u1; out[9] = x[2] * u3 - x[3] * u2;
}

/* RK4 over J windows of `substeps` steps; xs holds J*substeps+1 rows of 10.
   Stages 2 and 3 share their time, so the oscillators are evaluated at three
   times per step, and at two when the step starts bit for bit where the
   previous one ended: its first stage takes that step's last oscillators.
   Returns the number of valid rows (fewer on blow-up). */
int64_t brockett_trajectory(const double *x0, int64_t J, int64_t substeps,
                            double h, double p, const int64_t *kappas,
                            double omega, const double *gamma_amp,
                            int sampled, double *xs)
{
    const int64_t K = J * substeps + 1;
    const double e = 2.0 * p - 1.0;
    double x[10], xf[10], xt[10], k1[10], k2[10], k3[10], k4[10];
    double vs[12], cs[3][12], t_end = 0.0;
    for (int d = 0; d < 10; ++d) {
        x[d] = xf[d] = xs[d] = x0[d];
    }
    for (int64_t step = 0; step < K - 1; ++step) {
        const int start = step %% substeps == 0;
        if (sampled && start)
            for (int d = 0; d < 10; ++d) xf[d] = x[d];
        double t = step * h, ts[3] = {t, t + 0.5 * h, t + h};
        if (step > 0 && t == t_end)   /* t > 0 here: == is bitwise */
            for (int c = 0; c < 12; ++c) cs[0][c] = cs[2][c];
        else
            oscillators(ts[0], omega, kappas, cs[0]);
        for (int k = 1; k < 3; ++k)
            oscillators(ts[k], omega, kappas, cs[k]);
        t_end = ts[2];
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
# the exact path lays its text out with fixed-length copies that write up to
# 17 bytes past a field's end; the buffer keeps this much room after its last
CSV_SLACK_BYTES = 32


def _decimal_exponents() -> Tuple[Tuple[int, int, int], ...]:
    """``(E, x, t)`` for each binary exponent ``E`` whose binade
    ``[2^E, 2^(E+1))`` holds values that ``"%.17g"`` prints with a decimal
    exponent in [-16, 16]: ``x`` is that exponent for ``2^E``, and a value
    ``m 2^(E-52)`` (``m`` the 53-bit mantissa) prints with ``x + 1`` exactly
    when ``m >= t``, the smallest mantissa that rounds up to ``10^(x+1)`` at
    17 digits; ``t = 2^53`` when no value of the binade does."""
    out = []
    for e in range(math.frexp(1e-16)[1] - 1, math.frexp(1e17)[1]):
        x = int(("%.16e" % math.ldexp(1.0, e)).split("e")[1])
        # 10^(x+1) less half a unit of the 17th digit, 5 10^(x-17), over the
        # mantissa's unit 2^(E-52), rounded up
        num = (10 ** 18 - 5) * 10 ** max(x - 17, 0) * 2 ** max(52 - e, 0)
        den = 10 ** max(17 - x, 0) * 2 ** max(e - 52, 0)
        out.append((e, x, min(-(-num // den), 2 ** 53)))
    return tuple(out)


DECIMAL_EXPONENTS = _decimal_exponents()

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

/* DECIMAL_EXPONENTS from biased exponent BEXP_MIN on: the decimal exponent
   of each binade's smallest value, and the mantissa from which it is one
   more */
#define BEXP_MIN BEXP_MIN_VALUE
#define BEXP_COUNT BEXP_COUNT_VALUE
static const int8_t DEC_EXP[BEXP_COUNT] = {DEC_EXP_TABLE};
static const uint64_t DEC_STEP[BEXP_COUNT] = {
DEC_STEP_TABLE
};

static const char DIGIT_PAIRS[201] = "DIGIT_PAIRS_TEXT";

/* the 8 digits of v < 10^8, two at a time */
static void digits8(uint32_t v, char *out)
{
    const uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (hi / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (lo / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (lo % 100), 2);
}

/* 17 significant digits of a normal |v| with decimal exponent in [-16, 16],
   rounded half to even, as "%.17g" lays them out; -1 for any other v.
   Writes up to 34 bytes, at most 17 past the text it returns the length of. */
static int fmt_exact(uint64_t bits, char *out)
{
    const int bexp = (int)((bits >> 52) & 0x7ff);
    const unsigned i = (unsigned)(bexp - BEXP_MIN);
    if (i >= BEXP_COUNT) return -1;
    const uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    const int x = DEC_EXP[i] + (m >= DEC_STEP[i]);
    if (x < -16 || x > 16) return -1;
    /* |v| 10^(16-x) = m 5^(16-x) 2^-s lies in [10^16 - 1/20, 10^17 - 1/2),
       so it rounds to 17 digits; the top binades hold integers (s <= 0),
       shifted up to one fraction bit */
    u128 p = (u128)m * POW5[16 - x];
    int s = 1059 - bexp + x;
    const int up = s < 1 ? 1 - s : 0;
    p <<= up;
    s += up;
    /* round half to even: the remainder plus half, less one unless the
       quotient is odd, carries into the quotient exactly when it rounds up */
    uint64_t d = (uint64_t)(p >> s);
    const u128 r = p & (((u128)1 << s) - 1);
    d += (uint64_t)((r + ((u128)1 << (s - 1)) - 1 + (d & 1)) >> s);
    /* 1 + 8 + 8 digits; the tail stays in bounds of the copies below */
    char dig[33];
    const uint32_t hi = (uint32_t)(d / 100000000);
    dig[0] = (char)('0' + hi / 100000000);
    digits8(hi % 100000000, dig + 1);
    digits8((uint32_t)(d - (uint64_t)hi * 100000000), dig + 9);
    memset(dig + 17, '0', 16);
    int nd = 17;
    while (dig[nd - 1] == '0') --nd;
    if (x < -4) {                                /* d.ddde-XX */
        out[0] = dig[0];
        out[1] = '.';
        memcpy(out + 2, dig + 1, 16);
        char *o = out + (nd > 1 ? nd + 1 : 1);
        memcpy(o, "e-", 2);
        memcpy(o + 2, DIGIT_PAIRS + 2 * -x, 2);
        return (int)(o + 4 - out);
    }
    if (x < 0) {                                 /* 0.000ddd */
        memcpy(out, "0.000", 5);
        memcpy(out + 1 - x, dig, 17);
        return 1 - x + nd;
    }
    memcpy(out, dig, 17);                        /* ddd.ddd */
    out[x + 1] = '.';
    memcpy(out + x + 2, dig + x + 1, 16);
    return nd > x + 1 ? nd + 1 : x + 1;
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
    const int sign = (int)(bits >> 63);
    *out = '-';
    if (v == 0.0) {
        out[sign] = '0';
        return sign + 1;
    }
#ifdef __SIZEOF_INT128__
    const int n = fmt_exact(bits, out + sign);
    if (n >= 0) return sign + n;
#endif
    return fmt_libc(v, out);
}

/* rows x cols doubles (row major) as CSV lines; buf holds at least
   rows * (cols * CSV_FIELD_BYTES + 1) + CSV_SLACK_BYTES bytes, the two being
   the Python constants: the lines take at most the first term, and the
   fixed-length copies of fmt_exact may write into the slack after them.
   Returns the bytes of the lines. */
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
        for k in range(33))).replace(
    "BEXP_MIN_VALUE", str(DECIMAL_EXPONENTS[0][0] + 1023)).replace(
    "BEXP_COUNT_VALUE", str(len(DECIMAL_EXPONENTS))).replace(
    "DEC_EXP_TABLE", ", ".join(
        str(x) for _, x, _ in DECIMAL_EXPONENTS)).replace(
    "DEC_STEP_TABLE", ",\n".join(
        f"    {t}ULL" for _, _, t in DECIMAL_EXPONENTS)).replace(
    "DIGIT_PAIRS_TEXT", "".join(f"{k:02d}" for k in range(100)))

_NDTRI_SOURCE = r"""
/* Cephes ndtri (Moshier 1989) as scipy.special ships it: x with
   Phi(x) = y, from a rational function of y - 1/2 on the middle, and of
   z = 1/sqrt(-2 log y) in the tails, split at x = 8 (y = exp(-32)) */
static const double NDTRI_P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0};
static const double NDTRI_Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0};
static const double NDTRI_P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4};
static const double NDTRI_Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4};
static const double NDTRI_P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9};
static const double NDTRI_Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9};

/* c[0] x^n + ... + c[n], and Cephes' p1evl: x^n + c[0] x^(n-1) + ... + c[n-1];
   unrolled, they keep pace with scipy's (-O2 leaves the loops rolled) */
static double polevl(double x, const double *c, int n)
{
    double a = c[0];
#pragma GCC unroll 8
    for (int i = 1; i <= n; ++i) a = a * x + c[i];
    return a;
}

static double p1evl(double x, const double *c, int n)
{
    double a = x + c[0];
#pragma GCC unroll 8
    for (int i = 1; i < n; ++i) a = a * x + c[i];
    return a;
}

/* a NaN takes the tail branch, as in Cephes, so its sign bit comes out
   flipped, as scipy's does */
static double ndtri1(double y0)
{
    const double EXPM2 = 0.13533528323661269189;      /* exp(-2) */
    if (y0 == 0.0) return -INFINITY;
    if (y0 == 1.0) return INFINITY;
    if (y0 < 0.0 || y0 > 1.0) return NAN;
    double y = y0;
    const int upper = y > 1.0 - EXPM2;
    if (upper) y = 1.0 - y;
    if (y > EXPM2) {
        y -= 0.5;
        const double y2 = y * y;
        const double x = y + y * (y2 * polevl(y2, NDTRI_P0, 4)
                                  / p1evl(y2, NDTRI_Q0, 8));
        return x * 2.50662827463100050242E0;           /* sqrt(2 pi) */
    }
    const double x = sqrt(-2.0 * log(y)), z = 1.0 / x;
    const double x1 = x < 8.0
        ? z * polevl(z, NDTRI_P1, 8) / p1evl(z, NDTRI_Q1, 8)
        : z * polevl(z, NDTRI_P2, 8) / p1evl(z, NDTRI_Q2, 8);
    const double r = x - log(x) / x - x1;
    return upper ? r : -r;
}

/* out[i] = ndtri(p[i]) for n values; out may be p */
void ndtri(const double *p, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; ++i) out[i] = ndtri1(p[i]);
}
"""

_QUADRATURE_SOURCE = r"""
/* amp[q] cos(kw[q] s_i) and amp[q] sin(kw[q] s_i) at [q n + i] of cs and sn
   (gcc fuses the cos and sin of one th into one sincos call) */
void oscillator_channels(const double *s, int64_t n, int64_t m,
                         const double *kw, const double *amp, double *cs,
                         double *sn)
{
    for (int64_t q = 0; q < m; ++q)
        for (int64_t i = 0; i < n; ++i) {
            const double th = kw[q] * s[i];
            cs[q * n + i] = amp[q] * cos(th);
            sn[q * n + i] = amp[q] * sin(th);
        }
}

/* integrator._running_simpson of the n >= 3 samples y, its operations in
   its order: interval [i - 1, i] over the parabola through the samples from
   i - 1 on for odd i, else (and last, for even n) through those up to i */
void running_simpson(const double *y, int64_t n, double h, double *out)
{
    double acc = out[0] = 0.0;
    int64_t i = 1;
    for (; i + 1 < n; i += 2) {
        const double a = y[i - 1], b = y[i], c = y[i + 1];
        out[i] = acc += h / 3.0 * (5.0 * a / 4.0 + 2.0 * b - c / 4.0);
        out[i + 1] = acc += h / 3.0 * (5.0 * c / 4.0 + 2.0 * b - a / 4.0);
    }
    if (i < n)
        out[i] = acc + h / 3.0 * (5.0 * y[i] / 4.0 + 2.0 * y[i - 1]
                                  - y[i - 2] / 4.0);
}
"""

SOURCE = _KERNEL_SOURCE + _WRITER_SOURCE + _NDTRI_SOURCE + _QUADRATURE_SOURCE


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
    # imported here: a process that loads a cached library never needs it
    import subprocess

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
    fn = lib.ndtri
    fn.argtypes = [_F64, ctypes.c_int64, _F64]
    fn.restype = None
    fn = lib.oscillator_channels
    fn.argtypes = [_F64, ctypes.c_int64, ctypes.c_int64, *[_F64] * 4]
    fn.restype = None
    fn = lib.running_simpson
    fn.argtypes = [_F64, ctypes.c_int64, ctypes.c_double, _F64]
    fn.restype = None
    return lib


def kernel() -> ctypes.CDLL:
    """The loaded library (every part the module docstring names), built on
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


def closed_form_exponent(law) -> Optional[float]:
    """Exponent ``p`` of the case-study closed-form law, the one law the
    kernel runs, recognised by identity: the case study's fields in its pair
    order (written out in the kernel's stage) and ``components`` a partial of
    the closed form at ``p``.  ``None`` for any other law.  The kernel reads
    gain and oscillators from the law and never calls ``components_jac``."""
    c, sys = law.components, law.system
    if (isinstance(c, functools.partial) and c.func is brockett._components
            and len(c.args) == 1 and not c.keywords
            and sys.fields == brockett._FIELDS
            and sys.pairs == brockett._PAIRS):
        return float(c.args[0])
    return None


def brockett_trajectory(law, p, x0, J, substeps, h,
                        sampled) -> Tuple[np.ndarray, int]:
    """RK4 states of the case-study closed loop, ``(states, n_valid)``, as
    the generic stepper of :mod:`oscstab.integrator` gives them up to the
    rounding of the oscillators (see the module docstring).

    ``p`` is the exponent :func:`closed_form_exponent` recognised in
    ``law``; the law supplies the gain and the oscillators.  ``states`` has
    ``J * substeps + 1`` rows; only the first ``n_valid`` are meaningful
    (fewer than all when the norm squared passed ``BLOWUP_SQ`` or an entry
    went non-finite).  Raises :class:`KernelUnavailable` naming why the
    kernel cannot be had: no compiler or a failed build.
    """
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
    n_valid = lib.brockett_trajectory(x0, J, substeps, float(h), float(p),
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
    buf = np.empty(max_rows * (cols * CSV_FIELD_BYTES + 1) + CSV_SLACK_BYTES,
                   dtype=np.uint8)

    def format_block(block: np.ndarray) -> np.ndarray:
        if block.shape[0] > max_rows or block.shape[1:] != (cols,):
            raise ValueError(f"block {block.shape} exceeds ({max_rows}, {cols})")
        return buf[:fmt(block, block.shape[0], cols, buf)]

    return format_block


def normal_quantiles() -> Callable[[np.ndarray], np.ndarray]:
    """The standard normal quantile function over float64 arrays, bit for
    bit ``scipy.special.ndtri``: it returns a new array of the same shape.

    Raises :class:`KernelUnavailable` here, before any array, when the
    library cannot be had.
    """
    fn = kernel().ndtri

    def ndtri(p: np.ndarray) -> np.ndarray:
        p = np.ascontiguousarray(p, dtype=np.float64)
        out = np.empty_like(p)
        fn(p, p.size, out)
        return out

    return ndtri


def oscillator_quadrature(s: np.ndarray, kw: np.ndarray, amp: np.ndarray):
    """``(cos, sin, integral)`` on the grid ``s``: the rows ``amp[q]
    cos(kw[q] s)`` and ``amp[q] sin(kw[q] s)``, and ``integral(y, h)``, the
    running integral of 3 to ``len(s)`` samples ``y`` at spacing ``h``, bit
    for bit ``integrator._running_simpson``, in one buffer that the next
    call overwrites.  Raises :class:`KernelUnavailable` here, before any
    channel."""
    lib = kernel()
    if s.ndim != 1 or len(s) < 3 or kw.shape != amp.shape:
        raise ValueError("need 3 or more samples and an amplitude per kw")
    cos, sin = np.empty((2, len(kw), len(s)))
    lib.oscillator_channels(s, len(s), len(kw), kw, amp, cos, sin)
    buf = np.empty(len(s))

    def integral(y: np.ndarray, h: float) -> np.ndarray:
        if y.ndim != 1 or not 3 <= len(y) <= len(buf):
            raise ValueError(f"row {y.shape} does not fit the grid {buf.shape}")
        lib.running_simpson(y, len(y), h, buf)
        return buf[:len(y)]

    return cos, sin, integral
