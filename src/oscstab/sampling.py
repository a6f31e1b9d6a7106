"""Seeded sampling of scan regions and of the candidates' check ball.

Definiteness scans want worst-case coverage per sample, so their points come
from a scrambled Sobol sequence rather than i.i.d. draws.  Regions are balls
or axis-aligned boxes; an inner radius excludes a shell around the origin
where sign conditions are vacuous.

The Sobol points are generated here in numpy and equal
``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)[:n]``
bit for bit (:func:`_sobol`):

- direction numbers by the Joe--Kuo recurrence, 30 bits, from the primitive
  polynomials and initial numbers of the installed scipy's
  ``stats/_sobol_direction_numbers.npz`` (Joe & Kuo, SIAM J. Sci. Comput. 30
  (2008) 2635--2654), read without importing ``scipy.stats``;
- a digital shift and a linear matrix scramble (LMS) of the direction
  numbers, both drawn from ``np.random.default_rng(seed)`` (Matousek,
  J. Complexity 14 (1998) 527--556);
- points in Gray-code order, each the previous one XOR one scrambled
  direction number.

The scrambled numbers and the shift are memoised per ``(dim, seed)``, so the
scans of one ``verify``, which share both, scramble once.

The positivity sample a :class:`~oscstab.lyapunov.LyapunovSpec` is checked
on at construction is a plain i.i.d. one, from numpy's
``default_rng(seed)`` (:func:`iid_ball`).  It maps its draws onto the ball
by the same radius law as the ball scans.  Only the ball scans' normal
quantiles (``scipy.special.ndtri``) import scipy, when they first run.
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Region", "sample_region", "iid_ball"]

BITS = 30                 # bits per coordinate, as scipy's default engine
MAX_POINTS = 2 ** BITS    # length of the sequence
BOX_DRAWS = 64            # box points drawn at most, per point of max(n, 64)


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
        if (isinstance(dim, bool) or not isinstance(dim, (int, np.integer))
                or dim < 1):
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        if not 0.0 < radius < np.inf:
            raise ValueError("radius must be finite and positive, "
                             f"got {radius}")
        return Region("ball", int(dim), radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "Region":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if lo.shape[0] < 1:
            raise ValueError("dim must be >= 1: the box has no coordinate")
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


def _check_count(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample count must be an integer, got {n!r}")
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"sample count must be in [1, 2**{BITS}], got {n}")


@functools.lru_cache(maxsize=None)
def _direction_numbers(dim: int) -> np.ndarray:
    """Read-only (dim, BITS) Sobol direction numbers, scipy's unscrambled
    ``_sv``: coordinate ``d``'s ``j``-th number has its leading bit at
    ``2**(BITS - 1 - j)``."""
    loc = importlib.util.find_spec("scipy.stats").submodule_search_locations[0]
    with np.load(os.path.join(loc, "_sobol_direction_numbers.npz")) as table:
        poly, vinit = table["poly"], table["vinit"]
    if dim > poly.shape[0]:
        raise ValueError(f"dim must be at most {poly.shape[0]} for Sobol "
                         f"points, got {dim}")
    poly, vinit = poly[:dim], vinit[:dim]
    deg = np.array([int(p).bit_length() - 1 for p in poly])
    v = np.zeros((dim, BITS), dtype=np.int64)
    v[:, :vinit.shape[1]] = vinit
    for j in range(BITS):
        # m_j = m_{j-s} ^ 2^s m_{j-s} ^ XOR_k a_k 2^k m_{j-k}, on the rows
        # whose s = deg initial numbers are used up; the other rows' gathers
        # wrap around and are discarded
        new = v[np.arange(dim), j - deg]
        for k in range(vinit.shape[1]):
            tap = (k < deg) & ((poly >> np.maximum(deg - 1 - k, 0)) & 1 == 1)
            new = np.where(tap, new ^ (v[:, j - k - 1] << (k + 1)), new)
        v[:, j] = np.where(j >= deg, new, v[:, j])
    v[0] = 1                              # the first coordinate: van der Corput
    v <<= np.arange(BITS - 1, -1, -1)     # leading bit first
    v = v.astype(np.uint32)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=128)
def _scrambled(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only LMS-scrambled direction numbers as a C-contiguous
    (BITS, dim) table, and the (dim,) digital shift, for one seed."""
    rng = np.random.default_rng(seed)
    # uint32 draws, as scipy's: the dtype is part of the stream (uint8 or
    # uint16 draws give other bits)
    shift = (rng.integers(2, size=(dim, BITS), dtype=np.uint32)
             @ 2 ** np.arange(BITS, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(dim, BITS, BITS), dtype=np.uint32))
    ltm[:, np.arange(BITS), np.arange(BITS)] = 1
    # bits[d, j, i]: bit i, leading bit first, of direction number j; bit p
    # of the scrambled number is row p of the lower-triangular matrix times
    # those bits over GF(2)
    lead = np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    bits = (_direction_numbers(dim)[:, :, None] >> lead) & 1
    scrambled = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << lead)
    table = np.ascontiguousarray(scrambled.T, dtype=np.uint32)
    table.flags.writeable = False
    shift.flags.writeable = False
    return table, shift


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The first ``n`` points of the scrambled ``dim``-dimensional Sobol
    sequence of ``seed``, an (n, dim) array in [0, 1).

    Bit for bit ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=seed).random_base2(m)[:n]`` for any ``2**m >= n``: the sequence has
    the prefix property, so exactly ``n`` rows are drawn.  Point 0 is the
    digital shift; point ``i`` is point ``i - 1`` XOR the scrambled
    direction number of the lowest set bit of ``i`` (Gray-code order), and
    all are scaled by ``2**-BITS``.
    """
    _check_count(n)
    table, shift = _scrambled(dim, seed)
    i = np.arange(1, n)
    q = np.empty((n, dim), dtype=np.uint32)
    q[0] = shift
    q[1:] = table[np.frexp(i & -i)[1] - 1]
    np.bitwise_xor.accumulate(q, axis=0, out=q)
    return q * 2.0 ** -BITS


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

    Deterministic for a fixed ``(region, n, r_min, seed)``.  A box draws
    at most ``BOX_DRAWS * max(n, 64)`` points and raises ``ValueError`` when
    too few of them lie outside ``r_min``; an ``r_min`` at or beyond the
    box's farthest corner is refused before any draw.
    """
    _check_count(n)
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
    far = float(np.linalg.norm(np.maximum(np.abs(region.lo),
                                          np.abs(region.hi))))
    if r_min >= far:
        raise ValueError(f"r_min must be below the norm {far} of the box's "
                         f"farthest corner, got {r_min}")
    # box: affine map, then walk the sequence skipping the excluded shell;
    # each retry draws a block twice as long from the next seed, until
    # BOX_DRAWS * max(n, 64) points are spent
    pts = np.empty((n, d))
    have = 0
    block = max(n, 64)
    budget = BOX_DRAWS * block
    offset_seed = seed
    while have < n:
        if budget == 0:
            raise ValueError("region excludes almost all samples; enlarge it")
        block = min(block, budget)
        budget -= block
        u = _sobol(d, block, offset_seed)
        cand = region.lo + u * (region.hi - region.lo)
        keep = cand[np.linalg.norm(cand, axis=1) >= r_min]
        take = min(n - have, keep.shape[0])
        pts[have:have + take] = keep[:take]
        have += take
        offset_seed += 1
        block *= 2
    return pts
