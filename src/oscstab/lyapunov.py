"""Weak Lyapunov candidates and sampled sign-condition scans.

The candidate ``V`` is only a weak one for driftless systems: its derivative
cannot be made negative definite pointwise.  What decays instead is the
per-period average; the certificate evaluated here is

    w(x) = alpha(x) + gamma^2 * beta(x),

with ``alpha`` the derivative of ``V`` along the averaged drift and ``beta``
the sum of derivatives along the pair-bracket fields.  Negativity of ``w``
over a region is "verified" by seeded quasi-random scans; no closed-form
certificate exists in general, so a scan with its seed, region and worst
point is the honest artifact.

The unit of evaluation is a block of points: :func:`decrease_rate` takes one
state, shape (n,), or a block, shape (k, n), and the scans hand their whole
sample over in blocks of at most ``BLOCK`` (2048) points.  User callables
(fields, Jacobians, ``law.components_jac``, ``lyap.v`` and ``lyap.grad``)
share one contract: each takes one state and may also take a (k, n) block,
returning the stacked per-point results.  Each is probed for that once, when
its system, law or candidate is built (:mod:`oscstab._block`); one that
passes runs once per block, the others once per point with their values
stacked, and the pair-bracket algebra runs once per block either way.

Both terms of ``w`` and the margin ratio are derivatives of V along fields,
so the scans contract the pair-bracket algebra with ``grad V`` before any
vector is formed (``controller._pair_bracket_terms`` with a covector): per
point they need ``grad V . B_q`` and ``grad V . P_q``, not the bracket
fields themselves.  :func:`correction_field` gives the vector field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _block
from .controller import FeedbackLaw, _check_law_system, _pair_bracket_terms
from .sampling import Region, iid_ball, sample_region
from .vecfield import VectorFieldSystem

__all__ = [
    "LyapunovSpec", "DefinitenessReport", "DecreaseRate", "GainBound",
    "CorrectionSup", "decrease_rate", "negdef_scan", "gain_bound_scan",
    "correction_field", "correction_ratio_sup",
]

# radius of the ball on which candidates are checked positive
CHECK_RADIUS = 1.0
# gain-bound scan: |alpha| at or below this counts as a vanishing drift term
TOL_ALPHA = 1e-6
# margin scan: points with ||grad V|| below this are skipped
GRAD_FLOOR = 1e-12
# most points whose callable values are stacked at once; bounds peak memory
# (a 4096-point brockett10 gain scan traces about 3.4 MiB in two blocks)
BLOCK = 2048


@dataclass(frozen=True)
class LyapunovSpec:
    """Positive definite candidate with an analytic gradient.

    ``grad`` returns the gradient as a flat array, understood as a row
    covector (it multiplies vector fields from the left).  Positive
    definiteness is checked at construction on a deterministic i.i.d. sample
    of 64 points of the ball of radius ``CHECK_RADIUS`` (1.0), drawn from
    ``np.random.default_rng(7)`` (:func:`oscstab.sampling.iid_ball`; 65 at
    n = 64), with norms at least ``1e-3 * CHECK_RADIUS``.  ``v`` and ``grad``
    may also take a (k, n) float block and return the (k,) or (k, n) stack
    of their per-point results; each is probed for that here
    (:func:`oscstab._block.probe`), ``v`` on that sample.  A ``v`` that
    passes gives a trajectory its V channel in one call, a ``grad`` that
    passes serves a scan once per block; the others run once per point.
    """

    n: int
    v: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        zero = np.zeros(self.n)
        if abs(float(self.v(zero))) > 1e-12:
            raise ValueError("V(0) must be 0")
        g0 = np.asarray(self.grad(zero), dtype=float)
        if g0.shape != (self.n,):
            raise ValueError(f"grad must return shape ({self.n},)")
        if np.linalg.norm(g0) > 1e-12:
            raise ValueError("grad V(0) must vanish")
        # one more point when n == 64 keeps the sample a non-square block
        pts = iid_ball(self.n, 64 + (self.n == 64), CHECK_RADIUS,
                       r_min=1e-3 * CHECK_RADIUS, seed=7)
        vals = np.array([float(self.v(x)) for x in pts])
        if np.any(vals <= 0.0):
            bad = pts[int(np.argmin(vals))]
            raise ValueError(f"V is not positive at sampled point {bad.tolist()}")
        _block.probe(self.v, self.n, pts, vals)
        _block.probe(self.grad, self.n)


@dataclass(frozen=True)
class DefinitenessReport:
    """Outcome of a sampled sign scan, reproducible from region and seed."""

    n_samples: int
    violations: int
    worst_value: float
    worst_point: np.ndarray
    region: dict
    seed: int

    def __post_init__(self):
        if self.violations > self.n_samples:
            raise ValueError("violations cannot exceed the sample count")

    def to_json_dict(self) -> dict:
        return {
            "region": self.region,
            "N": self.n_samples,
            "seed": self.seed,
            "violations": self.violations,
            "worst_value": self.worst_value,
            "worst_point": np.asarray(self.worst_point).tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class DecreaseRate(NamedTuple):
    w: float
    alpha: float
    beta: float


def _blocks(pts: np.ndarray):
    """Consecutive blocks of at most ``BLOCK`` rows of ``pts``."""
    return (pts[s:s + BLOCK] for s in range(0, len(pts), BLOCK))


def decrease_rate(sys: VectorFieldSystem, law: FeedbackLaw, lyap: LyapunovSpec,
                  x, gamma: Optional[float] = None) -> DecreaseRate:
    """Certificate terms ``w = alpha + gamma**2 * beta`` at one point or a block.

    ``alpha`` is the derivative of V along the averaged drift, ``beta`` the
    summed derivative along the pair-bracket fields of all pairs; both come
    from one evaluation of ``components_jac`` at each point (one call per
    block of up to ``BLOCK`` (2048) points if it passed the block probe).
    ``x`` of shape (n,) gives floats; a block of shape (k, n) gives arrays
    with one entry per row, the terms a single-point call gives for that
    row up to the rounding of a constant Jacobian's product with ``grad V``
    (``vecfield._contracted_jacobians``; exact on brockett10), and empty
    arrays for a block of no rows; other shapes raise ``ValueError``.
    ``gamma`` defaults to the law's gain; passing a value rescales only the
    oscillatory term, which is exactly how the gain enters.  ``law`` must be
    built for ``sys``.  A non-finite Jacobian raises ``ValueError``, a
    non-finite live profile or gradient ``ArithmeticError`` naming the pair,
    each for the first failing point in row order.  Both terms come from the
    pair-bracket algebra contracted with ``grad V``; a non-finite ``grad V``
    gives non-finite terms at its points, without a warning.
    """
    _check_law_system(sys, law)
    if gamma is None:
        gamma = law.gamma
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (sys.n,) or x.ndim > 2:
        raise ValueError(f"state must have shape ({sys.n},) or (k, {sys.n}), "
                         f"got {x.shape}")
    if x.ndim == 1:
        alpha, beta = (float(t[0]) for t in _alpha_beta(sys, law, lyap,
                                                         x[None]))
    else:
        alpha, beta = map(np.concatenate, zip(
            *[_alpha_beta(sys, law, lyap, X) for X in _blocks(x)]
            or [(np.empty(0), np.empty(0))]))
    return DecreaseRate(alpha + gamma * gamma * beta, alpha, beta)


def _alpha_beta(sys, law, lyap, X):
    """``(alpha, beta)`` at the rows of the block ``X``, each of shape (k,)."""
    g = _block.rows(lyap.grad, X)
    v0, vals, jac = _block.rows(law.components_jac, X)
    f = _block.stacked(sys.fields, X)
    with np.errstate(invalid="ignore", over="ignore"):
        # a non-finite gradient gives non-finite terms, not a warning
        _, gp, fail = _pair_bracket_terms(sys, X, vals, jac, f, g)
    if fail is not None:
        raise fail[1]
    drift = (v0[:, None] @ f)[:, 0]
    return np.einsum("rn,rn->r", g, drift), gp.sum(axis=1)


def _report(vals, pts: np.ndarray, region: dict, seed: int,
            checked: Optional[np.ndarray] = None) -> DefinitenessReport:
    """Sign report of the values ``vals`` at the points ``pts``.

    Only the ``checked`` entries (default: all) are under the sign condition.
    A violation is any value not below 0, so a NaN counts.  The worst entry is
    the first NaN, else the first maximum (``np.argmax``); with nothing
    checked it is ``-inf`` at ``pts[0]``.
    """
    vals = np.asarray(vals, dtype=float)
    n_samples = len(vals)
    if checked is not None:
        n_samples = int(np.count_nonzero(checked))
        vals = np.where(checked, vals, -np.inf)
    k = int(np.argmax(vals))
    return DefinitenessReport(
        n_samples=n_samples, violations=int(np.count_nonzero(~(vals < 0.0))),
        worst_value=float(vals[k]), worst_point=pts[k].copy(), region=region,
        seed=seed)


def negdef_scan(fn: Callable[[np.ndarray], np.ndarray], region: Region,
                n_samples: int, r_min: float = 1e-6,
                seed: int = 0) -> DefinitenessReport:
    """Count sign violations of ``fn`` over a seeded quasi-random sample.

    ``fn`` is called once, on the whole (N, n) sample, and must return its
    N values in row order (anything else raises ``ValueError``).  Points
    keep ``r_min <= ||x||`` so the vanishing value at the origin does not
    pollute the verdict.  A violation is any ``fn(x) >= 0`` (non-finite
    values count as violations).  Identical seed and region reproduce the
    report bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < r_min < np.inf:
        raise ValueError(f"r_min must be finite and positive, got {r_min}")
    pts = sample_region(region, n_samples, r_min, seed)
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != (n_samples,):
        raise ValueError(f"fn must return one value per sampled point, shape "
                         f"({n_samples},), got {vals.shape}")
    return _report(vals, pts, region.descriptor(r_min), seed)


class GainBound(NamedTuple):
    ratio_sup: float
    gamma_max: float
    report: DefinitenessReport


def gain_bound_scan(sys: VectorFieldSystem, law: FeedbackLaw,
                    lyap: LyapunovSpec, region: Region, n_samples: int,
                    seed: int = 0, r_min: float = 1e-6) -> GainBound:
    """Sampled admissible-gain estimate from the certificate terms.

    Over points with ``|alpha| > TOL_ALPHA`` (1e-6) the scan estimates
    ``ratio_sup = sup(-beta / alpha)``; any gain with
    ``gamma**2 < 1 / ratio_sup`` keeps ``w`` negative on those samples, and a
    nonpositive ``ratio_sup`` (beta never fights alpha) yields the
    ``inf`` sentinel.  Points with ``|alpha| <= TOL_ALPHA`` and
    ``||x|| >= r_min`` stand in for the set where the drift term vanishes;
    there ``beta < 0`` is required and violations are reported.  A point
    where ``alpha`` or ``beta`` is not finite counts as a violation (with a
    NaN value), as in :func:`negdef_scan`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = sample_region(region, n_samples, r_min, seed)
    _, alpha, beta = decrease_rate(sys, law, lyap, pts, gamma=1.0)
    finite = np.isfinite(alpha) & np.isfinite(beta)
    bounded = finite & (np.abs(alpha) > TOL_ALPHA)
    ratio_sup = np.max(-beta[bounded] / alpha[bounded], initial=-np.inf)
    gamma_max = np.inf if ratio_sup <= 0.0 else 1.0 / np.sqrt(ratio_sup)
    # a non-finite term bounds nothing and counts as a violation
    report = _report(np.where(finite, beta, np.nan), pts,
                     region.descriptor(r_min), seed, checked=~bounded)
    return GainBound(float(ratio_sup), float(gamma_max), report)


def correction_field(sys: VectorFieldSystem, law: FeedbackLaw, x,
                     gamma: Optional[float] = None) -> np.ndarray:
    """Mismatch field between the certificate and the synthesis target.

    For components solving ``F(x) (v0, vtilde) = -grad V(x)^T`` the
    certificate satisfies ``w(x) = -||grad V(x)||^2 + grad V(x) . Phi(x)``
    with Phi the field computed here:

        Phi = gamma^2 sum_I P^I - sum_I vtilde^I [f_i, f_j],

    where ``P^I`` are the pair-bracket fields of
    :func:`~oscstab.controller.pair_bracket_field`; each input field and
    Jacobian is evaluated once.  Pairs at a sign switch (``vtilde = 0``)
    contribute nothing, by the same convention, so the identity above holds
    pointwise.  A non-finite profile or gradient raises ``ArithmeticError``
    naming the pair.  ``law`` must be built for ``sys``.
    """
    _check_law_system(sys, law)
    if gamma is None:
        gamma = law.gamma
    x = np.asarray(x, dtype=float)
    _, vals, jac = _block.rows(law.components_jac, x[None])
    phi, fail = _correction(sys, x[None], vals, jac, gamma)
    if fail is not None:
        raise fail[1]
    return phi[0]


def _correction(sys: VectorFieldSystem, X, vals, jac, gamma: float, g=None):
    """``(Phi, fail)`` on the block ``X``: Phi of shape (k, n), or its
    projection ``g . Phi`` of shape (k,) with the covector block ``g``, and
    the first failing point of the pair-bracket checks (see
    ``controller._pair_bracket_terms``)."""
    b, p, fail = _pair_bracket_terms(sys, X, vals, jac, g=g)
    return (gamma * gamma * np.sum(p, axis=1)
            - np.einsum("rq,rq...->r...", vals, b)), fail


class CorrectionSup(NamedTuple):
    sup: float
    skipped: int


def correction_ratio_sup(sys: VectorFieldSystem, law: FeedbackLaw,
                         lyap: LyapunovSpec, gamma: float, region: Region,
                         n_samples: int, seed: int = 0,
                         r_min: float = 1e-6) -> CorrectionSup:
    """Sampled supremum of ``grad V . Phi / ||grad V||^2``.

    An estimate below 1 means the synthesis term ``-||grad V||^2`` dominates
    the mismatch, which is the margin condition for the synthesized law.
    ``law``, built for ``sys``, supplies the profiles; its gain is ignored
    in favor of ``gamma``.  Points where the gradient norm falls below
    ``GRAD_FLOOR`` (1e-12) are skipped and counted.  The projections
    ``grad V . Phi`` and the ratios are formed per block of points, with the
    pair-bracket algebra contracted with ``grad V`` (Phi itself is never
    formed).  A non-finite ratio (from a field, profile
    or gradient that is not finite) raises ``ArithmeticError``, and so do
    the checks of :func:`correction_field`, each for the first failing point
    in sample order.
    """
    _check_law_system(sys, law)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = sample_region(region, n_samples, r_min, seed)
    grads = _block.rows(lyap.grad, pts)
    gn2 = np.einsum("rn,rn->r", grads, grads)
    skip = gn2 < GRAD_FLOOR * GRAD_FLOOR
    if skip.all():
        raise ValueError("every sampled point had a vanishing gradient")
    keep = ~skip
    pts, grads, gn2 = pts[keep], grads[keep], gn2[keep]
    sup = -np.inf
    for X, g, n2 in zip(*map(_blocks, (pts, grads, gn2))):
        _, vals, jac = _block.rows(law.components_jac, X)
        with np.errstate(invalid="ignore", over="ignore"):
            # a non-finite term (e.g. inf * 0) gives a non-finite ratio
            gphi, fail = _correction(sys, X, vals, jac, gamma, g)
            ratio = gphi / n2
        bad = ~np.isfinite(ratio)
        r = int(np.argmax(bad)) if bad.any() else len(X)
        if fail is not None and fail[0] <= r:
            raise fail[1]
        if r < len(X):
            raise ArithmeticError(f"margin ratio not finite at x={X[r].tolist()}")
        sup = max(sup, float(np.max(ratio)))
    return CorrectionSup(sup, int(np.count_nonzero(skip)))
