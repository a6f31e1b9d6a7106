"""Ten-state nilpotent case study with four inputs.

The system extends the classical three-state nonholonomic integrator: four
directly actuated coordinates and six coordinates reachable only through the
pairwise input brackets, which are constant fields (all longer brackets
vanish, so the one-period expansion truncates exactly).

The candidate family is

    V(x) = (x_1^2 + ... + x_4^2) / 2 + (|x_5|^2p + ... + |x_10|^2p) / (2p),

and the closed-form feedback profiles drive each bracket coordinate through
its own oscillator pair.  For exponent p = 1 the norm decays exponentially
in the simulations; larger exponents trade that for smoother profiles and a
slower (polynomial-looking) tail.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _fastpath, dualnum
from .controller import FeedbackLaw, synthesized_law, user_law
from .lyapunov import LyapunovSpec
from .vecfield import VectorFieldSystem

__all__ = [
    "PRESETS", "brockett_system", "brockett_lyapunov", "brockett_law",
    "brockett_vtilde", "brockett_decrease_rate", "brockett_decrease_parts",
    "stable_gain_interval",
]

# (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4): the order the compiled
# kernel's bracket rows are written in; bracket coordinate (0-based) of
# pair q is 4 + q
_PAIRS: Tuple[Tuple[int, int], ...] = _fastpath.PAIRS


def _f1(x):
    return np.array([1.0, 0.0, 0.0, 0.0, -x[1], -x[2], -x[3], 0.0, 0.0, 0.0])


def _f2(x):
    return np.array([0.0, 1.0, 0.0, 0.0, x[0], 0.0, 0.0, -x[2], -x[3], 0.0])


def _f3(x):
    return np.array([0.0, 0.0, 1.0, 0.0, 0.0, x[0], 0.0, x[1], 0.0, -x[3]])


def _f4(x):
    return np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, x[0], 0.0, x[1], x[2]])


def _const_jacobian(rows):
    j = np.zeros((10, 10))
    for r, c, val in rows:
        j[r, c] = val
    return lambda x, _j=j: _j


_J1 = _const_jacobian([(4, 1, -1.0), (5, 2, -1.0), (6, 3, -1.0)])
_J2 = _const_jacobian([(4, 0, 1.0), (7, 2, -1.0), (8, 3, -1.0)])
_J3 = _const_jacobian([(5, 0, 1.0), (7, 1, 1.0), (9, 3, -1.0)])
_J4 = _const_jacobian([(6, 0, 1.0), (8, 1, 1.0), (9, 2, 1.0)])


def brockett_system() -> VectorFieldSystem:
    """The ten-state four-input system with its six bracket pairs."""
    return VectorFieldSystem(
        n=10, m=4, fields=(_f1, _f2, _f3, _f4),
        jacobians=(_J1, _J2, _J3, _J4), pairs=_PAIRS, name="brockett10")


def brockett_lyapunov(p: float = 1.0) -> LyapunovSpec:
    """Power-family candidate; closures evaluate on dual states as well."""
    if p < 1.0:
        raise ValueError("exponent p must be >= 1")

    def v(x):
        head = 0.5 * (x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
        tail = sum(abs(x[c]) ** (2.0 * p) for c in range(4, 10)) / (2.0 * p)
        return head + tail

    def grad(x):
        out = list(x[:4])
        for c in range(4, 10):
            out.append(dualnum.sign(x[c]) * abs(x[c]) ** (2.0 * p - 1.0))
        return np.array(out)

    def batch_v(xs):
        xs = np.asarray(xs, dtype=float)
        return (0.5 * np.sum(xs[:, :4] ** 2, axis=1)
                + np.sum(np.abs(xs[:, 4:]) ** (2.0 * p), axis=1) / (2.0 * p))

    return LyapunovSpec(n=10, v=v, grad=grad, batch_v=batch_v)


def brockett_vtilde(p: float, x) -> np.ndarray:
    """Closed-form pair profiles: ``-sign(x_c) |x_c|^(2p-1) / 2`` per pair,
    where ``x_c`` is the bracket coordinate the pair excites."""
    xt = np.asarray(x, dtype=float)[4:10]
    return -0.5 * np.sign(xt) * np.abs(xt) ** (2.0 * p - 1.0)


def _profiles_jac(p: float, x) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form profiles and their (6, 10) Jacobian; profile q depends on
    the bracket coordinate 4 + q alone."""
    jac = np.zeros((6, 10))
    xt = np.asarray(x, dtype=float)[4:10]
    jac[:, 4:] = np.diag(-0.5 * (2.0 * p - 1.0) * np.abs(xt) ** (2.0 * p - 2.0))
    return brockett_vtilde(p, x), jac


def brockett_law(p: float = 1.0, gamma: float = 0.5, eps: float = 0.1,
                 kappas: Optional[Sequence[int]] = None,
                 mode: str = "closed-form") -> FeedbackLaw:
    """Feedback law for the case study.

    ``closed-form`` uses the explicit profiles and sets ``kernel_p``, so it
    runs on the compiled integration kernel; ``synthesized`` solves the
    bracket matrix pointwise and must agree with the closed forms, which the
    test-suite checks.
    """
    sys = brockett_system()
    if mode == "synthesized":
        return synthesized_law(sys, brockett_lyapunov(p), gamma, eps, kappas)
    if mode != "closed-form":
        raise ValueError(f"unknown law mode {mode!r}")

    def v0(x):
        return -np.asarray(x, dtype=float)[:4]

    law = user_law(sys, gamma, eps, v0=v0,
                   profiles=lambda x: brockett_vtilde(p, x),
                   profiles_jac=lambda x: _profiles_jac(p, x), kappas=kappas)
    return replace(law, kernel_p=float(p))


def brockett_decrease_parts(p: float, gamma: float, x):
    """Certificate terms from the closed-form profile algebra.

    Per pair with bracket coordinate c the bracket part contributes
    ``-|x_c|^(4p-2)`` and the profile-gradient cross terms contribute
    ``-(2p-1)/4 |x_c|^(2p-2) ((f_i)_c L_fj V - (f_j)_c L_fi V)``.  Pairs with
    ``x_c = 0`` are sign-switch points of the profile; they contribute
    nothing (the split factors vanish) and are flagged, since the formal
    derivation of the cross terms assumes ``x_c != 0``.

    Returns ``(w, alpha, beta, kink)``.
    """
    x = np.asarray(x, dtype=float)
    alpha = -float(np.sum(x[:4] ** 2))
    gv = x.copy()
    gv[4:] = np.sign(x[4:]) * np.abs(x[4:]) ** (2.0 * p - 1.0)
    # L_fk V for the four fields
    lf = np.empty(4)
    lf[0] = x[0] - gv[4] * x[1] - gv[5] * x[2] - gv[6] * x[3]
    lf[1] = x[1] + gv[4] * x[0] - gv[7] * x[2] - gv[8] * x[3]
    lf[2] = x[2] + gv[5] * x[0] + gv[7] * x[1] - gv[9] * x[3]
    lf[3] = x[3] + gv[6] * x[0] + gv[8] * x[1] + gv[9] * x[2]
    # (f_i)_c and (f_j)_c entries at the bracket coordinate of each pair
    fic = (-x[1], -x[2], -x[3], -x[2], -x[3], -x[3])
    fjc = (x[0], x[0], x[0], x[1], x[1], x[2])
    beta = 0.0
    kink = False
    for q, (i, j) in enumerate(_PAIRS):
        xc = x[4 + q]
        if xc == 0.0:
            kink = True
            continue
        beta -= abs(xc) ** (4.0 * p - 2.0)
        cross = fic[q] * lf[j - 1] - fjc[q] * lf[i - 1]
        beta -= 0.25 * (2.0 * p - 1.0) * abs(xc) ** (2.0 * p - 2.0) * cross
    w = alpha + gamma * gamma * beta
    return w, alpha, beta, kink


def brockett_decrease_rate(p: float, gamma: float, x) -> float:
    """Closed-form certificate value; agrees with the generic evaluation."""
    return brockett_decrease_parts(p, gamma, x)[0]


def stable_gain_interval(p: float, H: Optional[float] = None) -> Tuple[float, float]:
    """Open gain interval that makes the certificate negative definite.

    For p = 1 the interval is the global ``(0, sqrt(2))``; for p > 1 it is
    ``(0, 2 / sqrt((2p-1) H^(2p-1) (1+H)))`` on the domain where the bracket
    coordinates satisfy ``||x_tail|| < H``.  These are the published design
    intervals; the sampled scans in this package estimate sharper ones
    (see the gain-bound scan), and for p = 1 they show the upper end of the
    published interval is optimistic.
    """
    if p < 1.0:
        raise ValueError("exponent p must be >= 1")
    if p == 1.0:
        return (0.0, float(np.sqrt(2.0)))
    if H is None or H <= 0:
        raise ValueError("p > 1 needs a positive domain radius H")
    return (0.0, float(2.0 / np.sqrt((2.0 * p - 1.0) * H ** (2.0 * p - 1.0)
                                     * (1.0 + H))))


# --- presets ------------------------------------------------------------------

_X0_FIG1_LEFT = (1.0, -1.0, 1.5, -0.5, 2.0, -2.0, 2.5, -2.5, 3.0, -3.0)
_X0_FIG1_RIGHT = (1.0, -1.0) * 5

PRESETS = {
    "fig1-left": {"p": 1.0, "x0": _X0_FIG1_LEFT},
    "fig1-right": {"p": 1.5, "x0": _X0_FIG1_RIGHT},
}
