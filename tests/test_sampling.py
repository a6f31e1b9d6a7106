import gc
import hashlib
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from oscstab import cli, lyapunov, sampling
from oscstab.lyapunov import CHECK_RADIUS, LyapunovSpec, negdef_scan
from oscstab.sampling import (MAX_POINTS, Region, _sobol, iid_ball,
                              sample_region, shared_ball_draws)


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


# --- the radius law's float range ------------------------------------------------

@pytest.mark.parametrize("dim, radius, r_min", [
    (310, 10.0, 0.0),          # 10**310 overflows
    (10, 1e-40, 1e-45),        # 1e-400 underflows to 0
    (3, 1e-110, 0.0),          # 1e-330 underflows to 0
], ids=["overflow", "underflow-10", "underflow-3"])
def test_radius_whose_power_leaves_the_float_range_is_refused(
        dim, radius, r_min, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew points before refusing the radius")

    monkeypatch.setattr("oscstab.sampling._sobol", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    match = f"radius {radius} in dimension {dim}"
    with pytest.raises(ValueError, match=match):
        sample_region(Region.ball(dim, radius), 4, r_min, 0)
    with pytest.raises(ValueError, match=match):
        iid_ball(dim, 4, radius, r_min, 0)


@pytest.mark.parametrize("dim, radius", [(300, 10.0), (10, 1e30),
                                         (10, 1e-30), (3, 1e-100)])
def test_radius_whose_power_stays_in_range_samples_its_annulus(dim, radius):
    r_min = radius * 1e-3
    for pts in (sample_region(Region.ball(dim, radius), 64, r_min, 0),
                iid_ball(dim, 64, radius, r_min, 0)):
        norms = np.linalg.norm(pts, axis=1) / radius
        assert np.all(norms >= 1e-3 * (1 - 1e-12))
        assert np.all(norms <= 1 + 1e-12)


# --- one draw per verify ------------------------------------------------------------

def test_ball_samples_are_prefixes_of_the_longest_draw():
    for radius, r_min in ((5.0, 0.0), (2.0, 1e-6), (1.0, 1e-6)):
        region = Region.ball(10, radius)
        full = sample_region(region, 10_000, r_min, 2024).view(np.uint64)
        with shared_ball_draws():
            sample_region(region, 10_000, r_min, 2024)
            shared = [sample_region(region, k, r_min, 2024)
                      for k in (1, 128, 2048, 4096)]
            # the directions and radius uniforms own their memory: the
            # (n, dim + 1) Sobol array is not held through a view
            dirs, u = sampling._BALL_DRAWS.get()[(10, 2024)]
            assert dirs.shape == (10_000, 10) and u.shape == (10_000,)
            assert dirs.base is None and u.base is None
        for k, got in zip((1, 128, 2048, 4096), shared):
            want = sample_region(region, k, r_min, 2024).view(np.uint64)
            assert np.array_equal(want, full[:k])
            assert np.array_equal(got.view(np.uint64), want)


# sha256 of the span, negdef, gain and margin points of a default verify
VERIFY_POINTS = {
    2024: ("5fa601ba25505ed2d79e3ff2021e955e3821b502153fc22cd47a8d3c0cbdba59",
           "2bd398f99590980527090012c4e9790a11cf903e5fe5117ce94a1d613db17cda",
           "2cc9970e66d0ed68e95fabe28504ce8cc1b8bd64922b92bdb57c5d35c1424944",
           "80c55540d35922d3f657e8d8f46bc45c786654d79f9d47d2265bbd30af48731a"),
    7: ("bf4170d36a53f4f3632dc9b8d70eec12326857aa3effc754a986188e329609c0",
        "59ba14d667779b9b69c96b61245835a4186d578a688ade6986dd44777dbc879d",
        "3185ac918dd2dfb390ca215e3035b67f8c3714f848e35efc9604618c9711c029",
        "56ea2099c1ab6f910b61e5677149573f649d740d872343036aed49da6f1df280"),
    11: ("942e8f0ffe009d1f3e8a5055e07d5007b7e86928ec1442ebe140d969dbcde57f",
         "855d28da45ce14f60889c66e54693a80a00731fd936a18e9d65f7040df3762fe",
         "a7110dc93742d3aa91aa629f23c9aa30ff81f41d62ef6129bfd2d1ce06713a9e",
         "282ecd3f098f696a62b95a139c718ae9471d87b8048c7918ca7ba340f87d070d"),
}


def _spy_scan_points(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        pts = sample_region(*args, **kwargs)
        seen.append(pts.copy())
        return pts

    monkeypatch.setattr(cli, "sample_region", spy)
    monkeypatch.setattr(lyapunov, "sample_region", spy)
    return seen


@pytest.mark.parametrize("seed", sorted(VERIFY_POINTS))
def test_verify_scan_points_are_pinned(seed, tmp_path, monkeypatch):
    seen = _spy_scan_points(monkeypatch)
    cli.verify(cli.RunConfig(seed=seed, outdir=str(tmp_path)))
    assert [len(p) for p in seen] == [128, 10_000, 4096, 2048]
    assert tuple(map(_digest, seen)) == VERIFY_POINTS[seed]


def _count_draws(monkeypatch):
    drawn, arrays = [], []

    def counting(dim, n, seed):
        drawn.append(n)
        arrays.append(weakref.ref(out := _sobol(dim, n, seed)))
        return out

    def holding(*args, **kwargs):
        pts = sample_region(*args, **kwargs)
        for held in sampling._BALL_DRAWS.get().values():
            arrays.extend(map(weakref.ref, held))
        return pts

    monkeypatch.setattr(sampling, "_sobol", counting)
    monkeypatch.setattr(cli, "sample_region", holding)
    monkeypatch.setattr(lyapunov, "sample_region", holding)
    return drawn, arrays


@pytest.mark.parametrize("knobs, draws", [
    ({}, [128, 10_000]),
    (dict(span_n=300, negdef_n=200, gain_n=100, c1_n=64), [300]),
    (dict(span_n=32, negdef_n=64, gain_n=512, c1_n=1024), [32, 64, 512, 1024]),
], ids=["default", "span-longest", "rising"])
def test_verify_draws_once_per_longer_prefix(knobs, draws, tmp_path,
                                             monkeypatch):
    drawn, arrays = _count_draws(monkeypatch)
    config = cli.RunConfig(outdir=str(tmp_path), **knobs)
    first, _ = cli.verify(config)
    assert drawn == draws
    # the draw is gone with the call: nothing holds it, and the next call
    # draws again
    assert sampling._BALL_DRAWS.get(None) is None
    gc.collect()
    assert arrays and all(ref() is None for ref in arrays)
    second, _ = cli.verify(config)
    assert drawn == draws + draws
    first.pop("wall_clock_s")
    second.pop("wall_clock_s")
    assert first == second
    sample_region(Region.ball(10, 1.0), 16, 1e-6, 2024)
    assert drawn == draws + draws + [16]


def test_verify_in_two_threads_matches_sequential_calls(tmp_path,
                                                       monkeypatch):
    configs = [cli.RunConfig(seed=seed, outdir=str(tmp_path / str(seed)))
               for seed in (2024, 7)]
    want = [cli.verify(c)[0] for c in configs]
    # each thread's first draw waits for the other's, so both calls hold
    # their draws at once; neither sees the other's
    barrier = threading.Barrier(2, timeout=30)
    drawn = {}

    def meeting(dim, n, seed):
        mine = drawn.setdefault(threading.get_ident(), [])
        if not mine:
            barrier.wait()
        mine.append(n)
        return _sobol(dim, n, seed)

    monkeypatch.setattr(sampling, "_sobol", meeting)
    got = [None, None]

    def run(i):
        got[i] = cli.verify(configs[i])[0]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert list(drawn.values()) == [[128, 10_000]] * 2
    for payload in want + got:
        payload.pop("wall_clock_s")
    assert got == want
