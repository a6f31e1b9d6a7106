import hashlib
import math

import numpy as np
import pytest

from oscstab.lyapunov import CHECK_RADIUS, LyapunovSpec, negdef_scan
from oscstab.sampling import Region, iid_ball, sample_region


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
