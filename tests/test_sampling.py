import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from oscstab.lyapunov import CHECK_RADIUS, LyapunovSpec, negdef_scan
from oscstab.sampling import MAX_POINTS, Region, _sobol, iid_ball, sample_region


def _digest(pts):
    return hashlib.sha256(np.ascontiguousarray(pts, dtype="<f8").tobytes()
                          ).hexdigest()


# scan points pinned exactly: (region, seed) -> (sha256, first row, last row)
PINNED = {
    "ball": (Region.ball(3, 1.0),
             "6385c8badf08ac90cd8e71809ee7673d5d2559d3f62666e715a06d24dda24313",
             [0.36631380914848705, -0.7824113770024298, 0.06823560390285001],
             [0.31881457529893586, 0.18194684481091267, 0.8909575677525938]),
    "box": (Region.box([-1, -1], [2, 2]),
            "2efcb47c7c499f96d1a64e7f10c2aa68c5ff2125525ab67bd4ece027e0b784bc",
            [0.8940554270520806, -0.28943789657205343],
            [0.9457473754882812, 0.642230810597539]),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_scan_points_are_pinned(kind):
    region, digest, first, last = PINNED[kind]
    pts = sample_region(region, 64, 1e-6, 5)
    assert pts.shape == (64, region.dim)
    assert pts[0].tolist() == first and pts[-1].tolist() == last
    assert _digest(pts) == digest


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 10, 11, 40, 65])
@pytest.mark.parametrize("seed", [0, 7, 11, 2024, 2**63])
def test_sobol_equals_scipy_bit_for_bit(dim, seed):
    from scipy.stats import qmc
    for m in (0, 1, 5, 10):
        for n in sorted({1, 2, 3, 2**m, 2**m + 1}):
            ref = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(
                math.ceil(math.log2(n)))[:n]
            got = _sobol(dim, n, seed)
            assert got.dtype == np.float64 and got.shape == (n, dim)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    ref = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(14)[:10000]
    assert np.array_equal(_sobol(dim, 10000, seed).view(np.uint64),
                          ref.view(np.uint64))


def test_dimension_beyond_the_direction_table_is_refused():
    from scipy.stats import qmc
    with pytest.raises(ValueError, match="dim must be at most"):
        sample_region(Region.ball(qmc.Sobol.MAXDIM, 1.0), 1, 1e-6, 0)


def test_sobol_memo_does_not_leak_into_the_points():
    first = _sobol(11, 300, 4)
    expected = first.copy()
    first[:] = -1.0
    assert np.array_equal(_sobol(11, 300, 4), expected)
    pts = sample_region(Region.ball(10, 1.0), 300, 1e-6, 4)
    expected = pts.copy()
    pts[:] = 7.0
    assert np.array_equal(sample_region(Region.ball(10, 1.0), 300, 1e-6, 4),
                          expected)


def test_positivity_sample_is_deterministic_and_in_the_annulus():
    for n in (2, 10, 64):
        k = 64 + (n == 64)
        pts = iid_ball(n, k, CHECK_RADIUS, 1e-3 * CHECK_RADIUS, seed=7)
        assert pts.shape == (k, n)
        assert np.array_equal(pts, iid_ball(n, k, CHECK_RADIUS,
                                            1e-3 * CHECK_RADIUS, seed=7))
        norms = np.linalg.norm(pts, axis=1)
        assert np.all(norms >= 1e-3) and np.all(norms <= CHECK_RADIUS + 1e-12)
        assert len(np.unique(pts, axis=0)) == k


def test_candidate_is_checked_on_the_seeded_sample():
    # v sees the positivity sample (65 rows at n = 64) as its block probe
    seen = []

    def v(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            seen.append(x.copy())
        return np.sum(x * x, axis=-1)

    LyapunovSpec(64, v=v, grad=lambda x: 2.0 * np.asarray(x, dtype=float))
    assert len(seen) == 1
    assert np.array_equal(seen[0], iid_ball(64, 65, CHECK_RADIUS,
                                            1e-3 * CHECK_RADIUS, seed=7))



@pytest.mark.parametrize("make", [
    lambda: Region.ball(3, math.nan),
    lambda: Region.ball(3, math.inf),
    lambda: Region.ball(3, 0.0),
    lambda: Region.box([-1.0, -math.inf], [1.0, 1.0]),
    lambda: Region.box([-1.0, -1.0], [1.0, math.nan]),
    lambda: sample_region(Region.ball(3, 1.0), 4, math.nan, 0),
    lambda: sample_region(Region.ball(3, 1.0), 4, math.inf, 0),
    lambda: sample_region(Region.box([-1, -1], [1, 1]), 4, math.nan, 0),
    lambda: negdef_scan(lambda x: -np.ones(len(x)), Region.ball(3, 1.0), 4,
                        r_min=math.nan),
    lambda: negdef_scan(lambda x: -np.ones(len(x)), Region.ball(3, 1.0), 4,
                        r_min=math.inf),
], ids=["ball-nan", "ball-inf", "ball-zero", "box-inf", "box-nan",
        "r_min-nan", "r_min-inf", "box-r_min-nan", "negdef-r_min-nan",
        "negdef-r_min-inf"])
def test_non_finite_region_or_inner_radius_is_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: Region.ball(0, 1.0),
    lambda: Region.ball(-2, 1.0),
    lambda: Region.ball(2.5, 1.0),
    lambda: Region.ball(3.0, 1.0),
    lambda: Region.ball(True, 1.0),
    lambda: Region.box([], []),
], ids=["ball-zero", "ball-negative", "ball-fractional", "ball-float",
        "ball-bool", "box-empty"])
def test_region_without_a_coordinate_is_refused(make):
    with pytest.raises(ValueError, match="dim"):
        make()


@pytest.mark.parametrize("region", [Region.ball(3, 1.0),
                                    Region.box([-1, -1], [1, 1])],
                         ids=["ball", "box"])
@pytest.mark.parametrize("n", [0, 4.5, 4.0, MAX_POINTS + 1, 2**31],
                         ids=["zero", "fractional", "float", "over", "2**31"])
def test_unusable_point_count_is_refused_before_any_allocation(
        region, n, monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the count was checked")

    monkeypatch.setattr(np, "empty", no_alloc)
    monkeypatch.setattr(np, "arange", no_alloc)
    with pytest.raises(ValueError, match="sample count"):
        sample_region(region, n, 1e-6, 0)


def test_box_that_excludes_almost_everything_fails_in_bounded_memory():
    # only the corners' tips lie outside r_min: a retry loop that kept
    # doubling its block exhausted memory before it gave up
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="excludes almost all"):
            sample_region(Region.box([-1, -1], [1, 1]), 4,
                          math.sqrt(2) - 1e-12, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("r_min", [math.sqrt(8), 3.0],
                         ids=["farthest-corner", "beyond"])
def test_box_inner_radius_at_or_beyond_the_farthest_corner_is_refused(
        r_min, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew points before refusing r_min")

    monkeypatch.setattr("oscstab.sampling._sobol", no_draw)
    with pytest.raises(ValueError, match="farthest corner"):
        sample_region(Region.box([-1, -2], [2, 1]), 4, r_min, 0)


def test_box_draws_retry_blocks_within_the_cap():
    # about a fifth of the box lies outside r_min = 1, so the first block
    # of 100 draws falls short and the retries fill the rest
    box = Region.box([-1, -1], [1, 1])
    pts = sample_region(box, 100, 1.0, 3)
    assert pts.shape == (100, 2)
    assert (np.linalg.norm(pts, axis=1) >= 1.0).all()
    assert np.array_equal(pts, sample_region(box, 100, 1.0, 3))
