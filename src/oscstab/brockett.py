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

Every callable here also evaluates (k, 10) blocks of states, so it passes the
block probe of :mod:`oscstab._block`; fields, Jacobians, V and its gradient
also take one state of duals.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from . import dualnum
from .controller import FeedbackLaw, OscillatorAssignment, synthesized_law
from .lyapunov import LyapunovSpec
from .vecfield import VectorFieldSystem

__all__ = [
    "PRESETS", "brockett_system", "brockett_lyapunov", "brockett_law",
    "brockett_vtilde", "brockett_decrease_rate", "brockett_decrease_parts",
    "stable_gain_interval",
]

# bracket coordinate (0-based) of pair q is 4 + q; the compiled kernel of
# oscstab._fastpath writes its bracket rows in this order
_PAIRS: Tuple[Tuple[int, int], ...] = (
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _coords(x):
    """``(c, 1, 0)`` for a state, ``(x^T, ones, zeros)`` for a (k, n) block:
    a field lists its entries in these and transposes the array."""
    x = np.asarray(x)
    if x.ndim == 1:
        return x, 1.0, 0.0
    return x.T, np.ones(len(x)), np.zeros(len(x))


def _f1(x):
    c, _1, _0 = _coords(x)
    return np.array([_1, _0, _0, _0, -c[1], -c[2], -c[3], _0, _0, _0]).T


def _f2(x):
    c, _1, _0 = _coords(x)
    return np.array([_0, _1, _0, _0, c[0], _0, _0, -c[2], -c[3], _0]).T


def _f3(x):
    c, _1, _0 = _coords(x)
    return np.array([_0, _0, _1, _0, _0, c[0], _0, c[1], _0, -c[3]]).T


def _f4(x):
    c, _1, _0 = _coords(x)
    return np.array([_0, _0, _0, _1, _0, _0, c[0], _0, c[1], c[2]]).T


_FIELDS = (_f1, _f2, _f3, _f4)


def _const_jacobian(rows):
    j = np.zeros((10, 10))
    for r, c, val in rows:
        j[r, c] = val
    return lambda x: j if np.ndim(x) == 1 else np.broadcast_to(
        j, np.shape(x)[:-1] + j.shape)


_J1 = _const_jacobian([(4, 1, -1.0), (5, 2, -1.0), (6, 3, -1.0)])
_J2 = _const_jacobian([(4, 0, 1.0), (7, 2, -1.0), (8, 3, -1.0)])
_J3 = _const_jacobian([(5, 0, 1.0), (7, 1, 1.0), (9, 3, -1.0)])
_J4 = _const_jacobian([(6, 0, 1.0), (8, 1, 1.0), (9, 2, 1.0)])


def brockett_system() -> VectorFieldSystem:
    """The ten-state four-input system with its six bracket pairs."""
    return VectorFieldSystem(
        n=10, m=4, fields=_FIELDS,
        jacobians=(_J1, _J2, _J3, _J4), pairs=_PAIRS, name="brockett10")


def _check_exponent(p: float) -> None:
    """Refuse a candidate exponent that is not a finite number >= 1."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")


@functools.lru_cache(maxsize=None)
def brockett_lyapunov(p: float = 1.0) -> LyapunovSpec:
    """Power-family candidate, built once per exponent; closures evaluate on
    dual states as well."""
    _check_exponent(p)

    def v(x):
        x = np.asarray(x)
        return (0.5 * np.add.reduce(x[..., :4] ** 2, axis=-1)
                + np.add.reduce(np.abs(x[..., 4:]) ** (2.0 * p), axis=-1)
                / (2.0 * p))

    def grad(x):
        x = np.asarray(x)
        out = x.astype(object if x.dtype == object else float)
        tail = x[..., 4:]
        out[..., 4:] = dualnum.sign(tail) * np.abs(tail) ** (2.0 * p - 1.0)
        return out

    return LyapunovSpec(n=10, v=v, grad=grad)


def brockett_vtilde(p: float, x) -> np.ndarray:
    """Closed-form pair profiles: ``-sign(x_c) |x_c|^(2p-1) / 2`` per pair,
    where ``x_c`` is the bracket coordinate the pair excites; shape (6,) for
    one state, (k, 6) for a block of k."""
    xt = np.asarray(x, dtype=float)[..., 4:10]
    return -0.5 * np.sign(xt) * np.abs(xt) ** (2.0 * p - 1.0)


def _profiles_jac(p: float, x) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form profiles and their (6, 10) Jacobian, (k, 6) and
    (k, 6, 10) for a block; profile q depends on the bracket coordinate
    4 + q alone."""
    xt = np.asarray(x, dtype=float)[..., 4:10]
    jac = np.zeros(xt.shape + (10,))
    jac[..., np.arange(6), np.arange(4, 10)] = (
        -0.5 * (2.0 * p - 1.0) * np.abs(xt) ** (2.0 * p - 2.0))
    return brockett_vtilde(p, x), jac


def _components(p: float, x):
    """Closed-form ``(v0, vtilde)``: ``v0 = -x_1..4`` and the pair profiles."""
    return -np.asarray(x, dtype=float)[..., :4], brockett_vtilde(p, x)


def _components_jac(p: float, x):
    """Closed-form ``(v0, vtilde, jac)``."""
    return (-np.asarray(x, dtype=float)[..., :4], *_profiles_jac(p, x))


@functools.lru_cache(maxsize=None)
def _closed_form(p: float):
    """``(components, components_jac)`` at exponent ``p``, built once, so that
    its laws share them and their block-probe verdicts; partials, by which
    the compiled kernel recognises the law."""
    return (functools.partial(_components, p),
            functools.partial(_components_jac, p))


def brockett_law(p: float = 1.0, gamma: float = 0.5, eps: float = 0.1,
                 kappas: Optional[Sequence[int]] = None,
                 mode: str = "closed-form") -> FeedbackLaw:
    """Feedback law for the case study.

    ``closed-form`` uses the explicit profiles, which the compiled
    integration kernel recognises and runs; ``synthesized`` solves the
    bracket matrix pointwise and must agree with the closed forms, which the
    test-suite checks.
    """
    _check_exponent(p)
    sys = brockett_system()
    if mode == "synthesized":
        return synthesized_law(sys, brockett_lyapunov(p), gamma, eps, kappas)
    if mode != "closed-form":
        raise ValueError(f"unknown law mode {mode!r}")

    components, components_jac = _closed_form(float(p))
    return FeedbackLaw(system=sys, gamma=float(gamma),
                       assignment=OscillatorAssignment(sys.pairs, kappas, eps),
                       components=components, components_jac=components_jac)


def brockett_decrease_parts(p: float, gamma: float, x):
    """Certificate terms from the closed-form profile algebra.

    Per pair with bracket coordinate c the bracket part contributes
    ``-|x_c|^(4p-2)`` and the profile-gradient cross terms contribute
    ``-(2p-1)/4 |x_c|^(2p-2) ((f_i)_c L_fj V - (f_j)_c L_fi V)``.  Pairs with
    ``x_c = 0`` are sign-switch points of the profile; they contribute
    nothing (the split factors vanish) and are flagged, since the formal
    derivation of the cross terms assumes ``x_c != 0``.

    Returns ``(w, alpha, beta, kink)``: floats and a bool for ``x`` of shape
    (10,), arrays with one entry per row for a block of shape (k, 10).
    """
    x = np.asarray(x, dtype=float)
    # one contiguous row per coordinate; a state is a block of one
    c = np.moveaxis(np.atleast_2d(x), -1, 0).copy()
    x0, x1, x2, x3 = c[:4]
    alpha = -(x0 ** 2 + x1 ** 2 + x2 ** 2 + x3 ** 2)
    g = np.sign(c[4:]) * np.abs(c[4:]) ** (2.0 * p - 1.0)  # grad V, x_5..10
    # L_fk V for the four fields
    lf = (x0 - g[0] * x1 - g[1] * x2 - g[2] * x3,
          x1 + g[0] * x0 - g[3] * x2 - g[4] * x3,
          x2 + g[1] * x0 + g[3] * x1 - g[5] * x3,
          x3 + g[2] * x0 + g[4] * x1 + g[5] * x2)
    # (f_i)_c and (f_j)_c entries at the bracket coordinate of each pair
    fic = (-x1, -x2, -x3, -x2, -x3, -x3)
    fjc = (x0, x0, x0, x1, x1, x2)
    beta = 0.0
    for q, (i, j) in enumerate(_PAIRS):
        xc = np.abs(c[4 + q])
        live = xc != 0.0
        cross = fic[q] * lf[j - 1] - fjc[q] * lf[i - 1]
        beta = beta - np.where(live, xc ** (4.0 * p - 2.0), 0.0)
        beta = beta - np.where(
            live, 0.25 * (2.0 * p - 1.0) * xc ** (2.0 * p - 2.0) * cross, 0.0)
    w = alpha + gamma * gamma * beta
    kink = np.any(c[4:] == 0.0, axis=0)
    if x.ndim == 1:
        return float(w[0]), float(alpha[0]), float(beta[0]), bool(kink[0])
    return w, alpha, beta, kink


def brockett_decrease_rate(p: float, gamma: float, x):
    """Closed-form certificate value; agrees with the generic evaluation.

    A float for ``x`` of shape (10,), one value per row for a block of shape
    (k, 10)."""
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
    _check_exponent(p)
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
