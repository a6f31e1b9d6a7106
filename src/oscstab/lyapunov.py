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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .controller import FeedbackLaw, _pair_bracket_terms, synthesized_law
from .sampling import Region, sample_region
from .vecfield import VectorFieldSystem, input_matrix

__all__ = [
    "LyapunovSpec", "DefinitenessReport", "DecreaseRate", "GainBound",
    "CorrectionSup", "decrease_rate", "negdef_scan", "gain_bound_scan",
    "correction_field", "correction_ratio_sup",
]

# radius of the ball on which candidates are checked positive
CHECK_RADIUS = 1.0
# gain-bound scan: |alpha| at or below this counts as a vanishing drift term
TOL_ALPHA = 1e-6


@dataclass(frozen=True)
class LyapunovSpec:
    """Positive definite candidate with an analytic gradient.

    ``grad`` returns the gradient as a flat array, understood as a row
    covector (it multiplies vector fields from the left).  Positive
    definiteness is checked at construction on a deterministic sample of the
    ball of radius ``CHECK_RADIUS`` (1.0).
    """

    n: int
    v: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    # optional row-wise evaluator for (k, n) sample blocks; must agree with v
    batch_v: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        zero = np.zeros(self.n)
        if abs(float(self.v(zero))) > 1e-12:
            raise ValueError("V(0) must be 0")
        g0 = np.asarray(self.grad(zero), dtype=float)
        if g0.shape != (self.n,):
            raise ValueError(f"grad must return shape ({self.n},)")
        if np.linalg.norm(g0) > 1e-12:
            raise ValueError("grad V(0) must vanish")
        pts = sample_region(Region.ball(self.n, CHECK_RADIUS), 64,
                            r_min=1e-3 * CHECK_RADIUS, seed=7)
        vals = np.array([float(self.v(x)) for x in pts])
        if np.any(vals <= 0.0):
            bad = pts[int(np.argmin(vals))]
            raise ValueError(f"V is not positive at sampled point {bad.tolist()}")


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


def decrease_rate(sys: VectorFieldSystem, law: FeedbackLaw, lyap: LyapunovSpec,
                  x, gamma: Optional[float] = None) -> DecreaseRate:
    """Certificate terms at one point: ``w = alpha + gamma**2 * beta``.

    ``alpha`` is the derivative of V along the averaged drift, ``beta`` the
    summed derivative along the pair-bracket fields of all pairs; both come
    from one ``components_jac`` call.  ``gamma`` defaults to the law's gain;
    passing a value rescales only the oscillatory term, which is exactly how
    the gain enters.
    """
    if gamma is None:
        gamma = law.gamma
    x = np.asarray(x, dtype=float)
    g = np.asarray(lyap.grad(x), dtype=float)
    v0, vals, jac = law.components_jac(x)
    drift = input_matrix(law.system, x) @ np.asarray(v0, dtype=float)
    alpha = float(g @ drift)
    beta = float(np.sum(_pair_bracket_terms(law.system, x, vals, jac)[1] @ g))
    return DecreaseRate(alpha + gamma * gamma * beta, alpha, beta)


def _worse(value: float, worst: float) -> bool:
    """Whether ``value`` replaces the running ``worst``; a NaN, once held,
    stays, so the report names the first non-finite point."""
    return math.isnan(value) or (not math.isnan(worst) and value > worst)


def negdef_scan(fn: Callable[[np.ndarray], float], region: Region,
                n_samples: int, r_min: float = 1e-6,
                seed: int = 0) -> DefinitenessReport:
    """Count sign violations of ``fn`` over a seeded quasi-random sample.

    Points keep ``r_min <= ||x||`` so the vanishing value at the origin does
    not pollute the verdict.  A violation is any ``fn(x) >= 0`` (non-finite
    values count as violations).  Identical seed and region reproduce the
    report bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    pts = sample_region(region, n_samples, r_min, seed)
    worst = -np.inf
    worst_point = pts[0]
    violations = 0
    for x in pts:
        val = float(fn(x))
        if not val < 0.0:
            violations += 1
        if _worse(val, worst):
            worst = val
            worst_point = x
    return DefinitenessReport(n_samples=n_samples, violations=violations,
                              worst_value=worst, worst_point=worst_point,
                              region=region.descriptor(r_min), seed=seed)


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
    ratio_sup = -np.inf
    n_ratio = 0
    violations = 0
    n_checked = 0
    worst = -np.inf
    worst_point = pts[0]
    for x in pts:
        _, alpha, beta = decrease_rate(sys, law, lyap, x, gamma=1.0)
        finite = np.isfinite(alpha) and np.isfinite(beta)
        if finite and abs(alpha) > TOL_ALPHA:
            n_ratio += 1
            ratio_sup = max(ratio_sup, -beta / alpha)
        else:
            # a non-finite term bounds nothing and counts as a violation
            value = beta if finite else np.nan
            n_checked += 1
            if not value < 0.0:
                violations += 1
            if _worse(value, worst):
                worst = value
                worst_point = x
    if n_ratio == 0 and n_checked == 0:
        raise ValueError("no admissible samples in the region; enlarge it")
    gamma_max = np.inf if ratio_sup <= 0.0 else 1.0 / np.sqrt(ratio_sup)
    report = DefinitenessReport(
        n_samples=n_checked, violations=violations,
        worst_value=worst if n_checked else -np.inf,
        worst_point=worst_point, region=region.descriptor(r_min), seed=seed)
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
    naming the pair.
    """
    if gamma is None:
        gamma = law.gamma
    x = np.asarray(x, dtype=float)
    _, vals, jac = law.components_jac(x)
    return _correction(sys, x, vals, jac, gamma)


def _correction(sys: VectorFieldSystem, x, vals, jac,
                gamma: float) -> np.ndarray:
    brackets, pair_fields = _pair_bracket_terms(sys, x, vals, jac)
    return gamma * gamma * np.sum(pair_fields, axis=0) - vals @ brackets


class CorrectionSup(NamedTuple):
    sup: float
    skipped: int


def correction_ratio_sup(sys: VectorFieldSystem, lyap: LyapunovSpec,
                         gamma: float, region: Region, n_samples: int,
                         seed: int = 0, law: Optional[FeedbackLaw] = None,
                         grad_floor: float = 1e-12,
                         r_min: float = 1e-6) -> CorrectionSup:
    """Sampled supremum of ``grad V . Phi / ||grad V||^2``.

    An estimate below 1 means the synthesis term ``-||grad V||^2`` dominates
    the mismatch, which is the margin condition for the synthesized law.
    Points where the gradient norm falls below ``grad_floor`` are skipped and
    counted.  A non-finite ratio (from a field, profile or gradient that is
    not finite) raises ``ArithmeticError``.  ``law`` may supply profile
    evaluators (its gain is ignored in favor of ``gamma``); without one the
    profiles are synthesized pointwise (:func:`synthesized_law`), with their
    Jacobian from implicit differentiation of the solve.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = sample_region(region, n_samples, r_min, seed)
    if law is None:
        # neither the gain nor the period enters components_jac
        law = synthesized_law(sys, lyap, 0.0, 1.0)
    ls = law.system
    if (ls.n, ls.m, ls.pairs) != (sys.n, sys.m, sys.pairs):
        raise ValueError("law was built for a structurally different system")
    sup = -np.inf
    skipped = 0
    for x in pts:
        g = np.asarray(lyap.grad(x), dtype=float)
        gn2 = float(g @ g)
        if gn2 < grad_floor * grad_floor:
            skipped += 1
            continue
        _, vals, jac = law.components_jac(x)
        phi = _correction(sys, x, vals, jac, gamma)
        with np.errstate(invalid="ignore"):
            # a non-finite term (e.g. inf * 0) gives a non-finite ratio, on
            # which the check below raises
            ratio = float(g @ phi) / gn2
        if not np.isfinite(ratio):
            raise ArithmeticError(
                f"margin ratio not finite at x={np.asarray(x).tolist()}")
        sup = max(sup, ratio)
    if skipped == n_samples:
        raise ValueError("every sampled point had a vanishing gradient")
    return CorrectionSup(float(sup), skipped)
