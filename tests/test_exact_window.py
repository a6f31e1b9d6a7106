"""Exact one-window oracle for the sampled (frozen-argument) closed loop.

For affine input fields ``f_k(x) = b_k + A_k x`` with ``A_k A_l = 0`` for
all ``k, l`` (brockett10 and heis3: every ``A_k`` maps head coordinates to
tail coordinates, which no ``A_l`` reads), the control ``u(t) = h(x0, t)``
of one sampled window is a fixed trigonometric polynomial in ``t``, and the
Picard series of ``xdot = sum_k u_k(t) f_k(x)`` stops after its second term:

    x(t) = x0 + sum_k U_k(t) (b_k + A_k x0) + sum_{k,l} L_kl(t) A_k b_l,

with ``U_k = int_0^t u_k`` and ``L_kl = int_0^t u_k(s) U_l(s) ds``.  Both
integrals are taken in closed form: each control is a sum of exponentials
``exp(i kappa omega s)``, so a product of two terms is one exponential (the
product-to-sum identities) and every integral is elementary.

RK4 is fourth order on this smooth, explicitly time-dependent field, so the
deviation from the exact map drops by 16 when the step is halved.
"""

import cmath
import math
from collections import defaultdict

import numpy as np
import pytest

from oscstab import brockett as bk
from oscstab.controller import synthesized_law
from oscstab.integrator import integrate_sampled
from oscstab.lyapunov import LyapunovSpec

from conftest import (GENERIC_PATH, X0_LEFT, X0_RIGHT, generic, heis3_system,
                      needs_cc)


def _control_terms(law, x0):
    """``u_k(s) = sum c[k][kappa] exp(i kappa omega s)`` at the frozen
    argument ``x0``, written out from the control formula: ``v0`` plus, per
    pair, ``gamma amp sqrt|vt| cos`` on channel ``i`` and ``gamma amp
    sqrt|vt| sign(vt) sin`` on channel ``j``, ``amp = 2 sqrt(kappa pi / eps)``."""
    v0, vts = law.components(x0)
    a = law.assignment
    terms = [defaultdict(complex, {0: v}) for v in v0]
    for (i, j), kap, vt in zip(a.pairs, a.kappas, vts):
        g = law.gamma * 2.0 * math.sqrt(kap * math.pi / a.eps) * math.sqrt(abs(vt))
        for sgn in (1, -1):
            # cos = (e^+ + e^-) / 2,  sin = (e^+ - e^-) / 2i
            terms[i - 1][sgn * kap] += g / 2
            terms[j - 1][sgn * kap] += sgn * g * np.sign(vt) / 2j
    return terms


def _antiderivative(u, omega):
    """``int_0^s u`` as ``{(n, kappa): coef}``, terms ``s^n exp(i kappa omega s)``."""
    out = defaultdict(complex)
    for kap, c in u.items():
        if kap == 0:
            out[(1, 0)] += c
        else:
            d = c / (1j * kap * omega)
            out[(0, kap)] += d
            out[(0, 0)] -= d
    return out


def _int_exp(n, kap, omega, t):
    """``int_0^t s^n exp(i kappa omega s) ds`` for ``n`` in (0, 1)."""
    if kap == 0:
        return t ** (n + 1) / (n + 1)
    w = kap * omega
    e = cmath.exp(1j * w * t)
    if n == 0:
        return (e - 1.0) / (1j * w)
    return t * e / (1j * w) + (e - 1.0) / w ** 2


def exact_window(sys_, law, x0):
    """State after one sampled window from ``x0`` at time 0, exactly."""
    zero = np.zeros(sys_.n)
    b = [sys_.field(k, zero) for k in range(1, sys_.m + 1)]
    A = [sys_.jacobian(k, zero) for k in range(1, sys_.m + 1)]
    for k in range(sys_.m):
        assert np.array_equal(sys_.field(k + 1, x0), b[k] + A[k] @ x0)
        for l in range(sys_.m):
            assert not np.any(A[k] @ A[l])
    t = law.eps
    omega = 2.0 * math.pi / t
    u = _control_terms(law, x0)
    U = [_antiderivative(uk, omega) for uk in u]
    x = np.array(x0, dtype=float)
    for k in range(sys_.m):
        Uk = sum(c * t ** n * cmath.exp(1j * kap * omega * t)
                 for (n, kap), c in U[k].items())
        assert abs(Uk.imag) <= 1e-12
        x += Uk.real * (b[k] + A[k] @ x0)
        for l in range(sys_.m):
            L = sum(ca * cb * _int_exp(n, ka + kb, omega, t)
                    for ka, ca in u[k].items()
                    for (n, kb), cb in U[l].items())
            assert abs(L.imag) <= 1e-12
            x += L.real * (A[k] @ b[l])
    return x


def _heis3_case():
    sys_ = heis3_system()
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.array([x[0], x[1], x[2]]))
    law = synthesized_law(sys_, lyap, 0.5, 0.1)
    return sys_, lyap, law, np.array([0.6, -0.4, 0.8])


CASES = {
    "brockett10-p1": lambda: (bk.brockett_system(), bk.brockett_lyapunov(1.0),
                              bk.brockett_law(1.0, 0.5, 0.1), X0_LEFT),
    "brockett10-p1.5": lambda: (bk.brockett_system(), bk.brockett_lyapunov(1.5),
                                bk.brockett_law(1.5, 0.5, 0.1), X0_RIGHT),
    "heis3": _heis3_case,
}
# heis3 has no compiled kernel, so only its generic path exists
PATHS = [("brockett10-p1", True), ("brockett10-p1", False),
         ("brockett10-p1.5", True), ("brockett10-p1.5", False),
         ("heis3", False)]


@pytest.mark.parametrize(
    "case,compiled",
    [pytest.param(c, f, marks=[needs_cc] if f else [],
                  id=f"{c}-{'compiled' if f else 'generic'}") for c, f in PATHS])
def test_sampled_window_matches_exact_map(case, compiled):
    sys_, lyap, law, x0 = CASES[case]()
    exact = exact_window(sys_, law, x0)
    dev = {}
    for substeps in (400, 800):
        traj = integrate_sampled(sys_, law if compiled else generic(law), x0,
                                 T=law.eps, substeps=substeps, lyap=lyap)
        assert traj.solver_path == ("compiled" if compiled else GENERIC_PATH)
        assert traj.n_windows == 1 and traj.t[-1] == law.eps
        err = np.linalg.norm(traj.states[-1] - exact)
        dev[substeps] = err / np.linalg.norm(exact)
        # r_hat against V of the exact map: they differ by the change in V
        # that the RK4 error makes, |grad V| |err| / eps^(3/2) to first order
        r_exact = ((lyap.v(exact) - lyap.v(x0)) / law.eps - traj.windows.w[0]) \
            / math.sqrt(law.eps)
        tol = (2.0 * np.linalg.norm(lyap.grad(exact)) * err / law.eps ** 1.5
               + 1e-12)
        assert abs(traj.windows.r_hat[0] - r_exact) <= tol
    assert dev[400] <= 1e-8
    assert 14.0 <= dev[400] / dev[800] <= 18.0
