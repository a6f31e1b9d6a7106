"""Seeded sampling of scan regions and of the candidates' check ball.

Definiteness scans want worst-case coverage per sample, so their points come
from a scrambled Sobol sequence (``scipy.stats.qmc.Sobol``) rather than
i.i.d. draws.  Regions are balls or axis-aligned boxes; an inner radius
excludes a shell around the origin where sign conditions are vacuous.

The positivity sample a :class:`~oscstab.lyapunov.LyapunovSpec` is checked
on at construction is a plain i.i.d. one, from numpy's
``default_rng(seed)`` (:func:`iid_ball`).  It maps its draws onto the ball
by the same radius law as the ball scans.  scipy is imported only when a
scan samples, so building systems, laws and candidates needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Region", "sample_region", "iid_ball"]


@dataclass(frozen=True)
class Region:
    """Ball ``||x|| <= radius`` or box ``lo <= x <= hi`` in R^n."""

    kind: str
    dim: int
    radius: Optional[float] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    @staticmethod
    def ball(dim: int, radius: float) -> "Region":
        if not 0.0 < radius < np.inf:
            raise ValueError("radius must be finite and positive, "
                             f"got {radius}")
        return Region("ball", dim, radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "Region":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(hi <= lo):
            raise ValueError("empty box")
        return Region("box", lo.shape[0], lo=lo, hi=hi)

    def descriptor(self, r_min: float) -> dict:
        """JSON-friendly description used in scan reports."""
        if self.kind == "ball":
            return {"kind": "ball", "dim": self.dim, "radius": self.radius,
                    "r_min": r_min}
        return {"kind": "box", "dim": self.dim, "lo": self.lo.tolist(),
                "hi": self.hi.tolist(), "r_min": r_min}


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc
    # draw a power-of-two block to keep the sequence balanced, then truncate
    gen = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(1, int(np.ceil(np.log2(max(n, 2)))))
    return gen.random_base2(m)[:n]


def _onto_ball(z: np.ndarray, u: np.ndarray, radius: float,
               r_min: float) -> np.ndarray:
    """Points ``r_min <= ||x|| <= radius`` from the Gaussian rows ``z`` (their
    directions) and the uniforms ``u`` in [0, 1) (their radii)."""
    d = z.shape[1]
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    # radius law that is uniform in volume over the annulus
    rad = (u * (radius ** d - r_min ** d) + r_min ** d) ** (1.0 / d)
    return z * rad[:, None]


def iid_ball(dim: int, n: int, radius: float, r_min: float,
             seed: int) -> np.ndarray:
    """``n`` i.i.d. points with ``r_min <= ||x|| <= radius`` in R^dim.

    Normalised Gaussian directions and volume-uniform radii, all drawn from
    ``np.random.default_rng(seed)``; numpy alone, deterministic for fixed
    arguments.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    return _onto_ball(z, rng.random(n), radius, r_min)


def sample_region(region: Region, n: int, r_min: float, seed: int) -> np.ndarray:
    """``n`` quasi-random points with ``r_min <= ||x||`` inside the region.

    Deterministic for a fixed ``(region, n, r_min, seed)``.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 <= r_min < np.inf:
        raise ValueError(f"r_min must be finite and >= 0, got {r_min}")
    d = region.dim
    if region.kind == "ball":
        if r_min >= region.radius:
            raise ValueError("r_min must be below the ball radius")
        from scipy.special import ndtri
        u = _sobol(d + 1, n, seed)
        z = ndtri(np.clip(u[:, :d], 1e-15, 1.0 - 1e-15))
        return _onto_ball(z, u[:, d], region.radius, r_min)
    # box: affine map, then walk the sequence skipping the excluded shell
    pts = np.empty((n, d))
    have = 0
    block = max(n, 64)
    offset_seed = seed
    while have < n:
        u = _sobol(d, block, offset_seed)
        cand = region.lo + u * (region.hi - region.lo)
        keep = cand[np.linalg.norm(cand, axis=1) >= r_min]
        take = min(n - have, keep.shape[0])
        pts[have:have + take] = keep[:take]
        have += take
        offset_seed += 1
        block *= 2
        if offset_seed > seed + 64:
            raise ValueError("region excludes almost all samples; enlarge it")
    return pts
