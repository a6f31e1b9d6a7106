import collections
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from oscstab import _block, lyapunov
from oscstab import brockett as bk
from oscstab.controller import (_pair_bracket_terms, drift_field,
                                pair_bracket_field, synthesized_law,
                                user_law)
from oscstab.lyapunov import (GRAD_FLOOR, TOL_ALPHA, DefinitenessReport,
                              LyapunovSpec, _correction, _report,
                              correction_field, correction_ratio_sup,
                              decrease_rate, gain_bound_scan, negdef_scan)
from oscstab.sampling import Region, sample_region
from oscstab.vecfield import JACOBIAN_ERROR, system_from_fields

from conftest import SMALL_BLOCK, _dt, heis3_system, per_point

# dense i.i.d. oracle values, frozen from 1e5..2e5-point reference sweeps
ORACLE_RATIO_SUP_P1_BALL2 = 0.735475
ORACLE_GMAX_P1_BALL2 = 1.166047
ORACLE_GMAX_P15_BALL1 = 1.521538
ORACLE_C1_SUP_P1_BALL1 = 0.749594


# --- candidate validation -------------------------------------------------------

def test_candidate_accepts_case_study_family():
    for p in (1.0, 1.25, 1.5):
        lyap = bk.brockett_lyapunov(p)
        assert lyap.v(np.zeros(10)) == 0.0


def test_candidate_rejects_nonvanishing_value_or_gradient():
    with pytest.raises(ValueError, match="V\\(0\\)"):
        LyapunovSpec(2, v=lambda x: x[0] + 1.0, grad=lambda x: np.zeros(2))
    with pytest.raises(ValueError, match="grad"):
        LyapunovSpec(2, v=lambda x: x[0] ** 2,
                     grad=lambda x: np.array([2 * x[0] + 1.0, 0.0]))


def test_candidate_rejects_indefinite_v():
    with pytest.raises(ValueError, match="not positive"):
        LyapunovSpec(2, v=lambda x: x[0] ** 2 - x[1] ** 2,
                     grad=lambda x: np.array([2 * x[0], -2 * x[1]]))


def test_candidate_v_that_disagrees_on_blocks_runs_per_point():
    # v is probed on the 64-point positivity sample: a v whose block result
    # is off anywhere, or misshapen, is kept to one state at a time
    good = lambda x: np.sum(np.asarray(x) ** 2, axis=-1)
    grad = lambda x: 2.0 * np.asarray(x, dtype=float)

    def off_by(delta):
        def v(x):
            x = np.asarray(x)
            if x.ndim == 1:
                return good(x)
            return good(x) + delta(len(x))
        return v

    assert _block.blockwise(LyapunovSpec(2, v=good, grad=grad).v, 2)
    states = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 2))
    ref = _block.rows(LyapunovSpec(2, v=good, grad=grad).v, states)
    for bad in (off_by(lambda k: good(np.ones(2))),        # all rows off
                off_by(lambda k: (np.arange(k) == 9) * 1e-9),  # one row off
                lambda x: good(x) if np.ndim(x) == 1 else good(x)[:-1]):
        lyap = LyapunovSpec(2, v=bad, grad=grad)
        assert not _block.blockwise(lyap.v, 2)
        assert np.array_equal(_block.rows(lyap.v, states), ref)


# --- certificate values ----------------------------------------------------------

def test_certificate_spec_points(bsys, lyap_p1, law_p1):
    e1 = np.eye(10)[0]
    e5 = np.eye(10)[4]
    w, a, b = decrease_rate(bsys, law_p1, lyap_p1, e1)
    assert (w, a, b) == (-1.0, -1.0, 0.0)
    w, a, b = decrease_rate(bsys, law_p1, lyap_p1, e5)
    assert (w, a, b) == (-0.25, 0.0, -1.0)
    w, a, b = decrease_rate(bsys, law_p1, lyap_p1, np.zeros(10))
    assert (w, a, b) == (0.0, 0.0, 0.0)


def test_certificate_zero_at_origin_for_synthesized(bsys, lyap_p1):
    slaw = synthesized_law(bsys, lyap_p1, 0.5, 0.1)
    assert decrease_rate(bsys, slaw, lyap_p1, np.zeros(10)) == (0.0, 0.0, 0.0)


def test_certificate_gain_scaling_is_exactly_quadratic(bsys, lyap_p1, law_p1):
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.uniform(-2, 2, 10)
        _, a, b = decrease_rate(bsys, law_p1, lyap_p1, x, gamma=1.0)
        for gamma in (0.0, 1.0, 2.0):
            w, a2, b2 = decrease_rate(bsys, law_p1, lyap_p1, x, gamma=gamma)
            assert (a2, b2) == (a, b)
            assert abs(w - (a + gamma ** 2 * b)) <= 1e-12 * max(1.0, abs(w))


# --- definiteness scan ------------------------------------------------------------

def test_negdef_scan_negative_quadratic_clean():
    rep = negdef_scan(lambda X: [-float(x @ x) for x in X], Region.ball(4, 2.0),
                      2000, seed=3)
    assert rep.violations == 0
    assert rep.worst_value < 0


def test_negdef_scan_positive_quadratic_all_violations():
    rep = negdef_scan(lambda X: [+float(x @ x) for x in X], Region.ball(4, 2.0),
                      1000, seed=3)
    assert rep.violations == 1000
    assert rep.worst_value > 0
    assert np.linalg.norm(rep.worst_point) <= 2.0
    assert math.isclose(rep.worst_value, float(rep.worst_point @ rep.worst_point),
                        rel_tol=1e-12)
    # the worst point is a copy: a view would keep the whole sample alive
    # for as long as the report
    assert rep.worst_point.base is None


def test_negdef_scan_is_deterministic():
    fn = lambda X: [float(np.sin(x).sum() - x @ x) for x in X]
    r1 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=99)
    r2 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=99)
    assert r1.to_json() == r2.to_json()
    assert np.array_equal(r1.worst_point, r2.worst_point)
    r3 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=100)
    assert r3.to_json() != r1.to_json()


def test_negdef_scan_respects_inner_radius():
    seen = []
    negdef_scan(lambda X: seen.extend(np.linalg.norm(X, axis=1))
                or [-1.0 for x in X], Region.ball(3, 1.0), 256, r_min=0.25,
                seed=1)
    assert min(seen) >= 0.25
    with pytest.raises(ValueError, match="r_min"):
        negdef_scan(lambda X: [-1.0 for x in X], Region.ball(3, 1.0), 16,
                    r_min=0.0, seed=1)


def test_negdef_scan_box_region_and_nan_counts_as_violation():
    reg = Region.box([-1, -1], [2, 2])
    rep = negdef_scan(lambda X: [float("nan") for x in X], reg, 64, seed=5)
    assert rep.violations == 64
    rep2 = negdef_scan(lambda X: [-1.0 for x in X], reg, 64, seed=5)
    assert rep2.violations == 0
    assert rep2.region["kind"] == "box"


def test_report_serialization_roundtrip():
    rep = negdef_scan(lambda X: [-1.0 for x in X], Region.ball(2, 1.0), 32,
                      seed=11)
    d = json.loads(rep.to_json())
    assert d["N"] == 32 and d["seed"] == 11 and d["violations"] == 0
    assert len(d["worst_point"]) == 2
    assert d["region"]["radius"] == 1.0
    with pytest.raises(ValueError):
        DefinitenessReport(4, 5, 0.0, np.zeros(2), {}, 0)


# --- gain bound --------------------------------------------------------------------

def test_gain_bound_case_study_scan(bsys, lyap_p1, law_p1):
    gb = gain_bound_scan(bsys, law_p1, lyap_p1, Region.ball(10, 2.0), 10_000,
                         seed=5)
    assert gb.gamma_max >= 1.0
    assert abs(gb.gamma_max - ORACLE_GMAX_P1_BALL2) <= 0.1 * ORACLE_GMAX_P1_BALL2
    assert abs(gb.ratio_sup - ORACLE_RATIO_SUP_P1_BALL2) <= 0.15 * ORACLE_RATIO_SUP_P1_BALL2
    assert gb.report.violations == 0


def test_gain_bound_power_family_scan(bsys, lyap_p15, law_p15):
    gb = gain_bound_scan(bsys, law_p15, lyap_p15, Region.ball(10, 1.0), 10_000,
                         seed=5)
    assert gb.gamma_max >= 1.0  # the design interval for H = 1 ends at 1
    assert abs(gb.gamma_max - ORACLE_GMAX_P15_BALL1) <= 0.1 * ORACLE_GMAX_P15_BALL1


def test_gain_bound_consistency_with_certificate(bsys, lyap_p1, law_p1):
    gb = gain_bound_scan(bsys, law_p1, lyap_p1, Region.ball(10, 2.0), 2048,
                         seed=6)
    gamma = gb.gamma_max * (1 - 1e-6)
    pts = sample_region(Region.ball(10, 2.0), 2048, 1e-6, 6)
    for x in pts:
        _, a, b = decrease_rate(bsys, law_p1, lyap_p1, x, gamma=1.0)
        if abs(a) > 1e-6:
            assert a + gamma ** 2 * b < 0


def _heis_law(vt_fn, vt_grad, v0_fn=None):
    sys_ = heis3_system()
    v0 = v0_fn if v0_fn is not None else (lambda x: np.zeros(2))
    return sys_, user_law(sys_, 1.0, 0.1, v0=v0,
                          profiles=lambda x: np.array([vt_fn(x)]),
                          profiles_jac=lambda x: (np.array([vt_fn(x)]),
                                                  vt_grad(x)[None, :]))


def test_gain_bound_sentinel_when_beta_never_fights():
    # zero drift (alpha = 0 everywhere) and beta < 0 near the x3 axis:
    # no ratio samples at all, so the bound is unconstrained
    sys_, law = _heis_law(lambda x: -0.5 * x[2],
                          lambda x: np.array([0.0, 0.0, -0.5]))
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    reg = Region.box([-0.1, -0.1, 1.0], [0.1, 0.1, 2.0])
    gb = gain_bound_scan(sys_, law, lyap, reg, 512, seed=7)
    assert gb.ratio_sup == -np.inf
    assert gb.gamma_max == np.inf
    assert gb.report.violations == 0
    assert gb.report.n_samples == 512


def test_gain_bound_counts_beta_violations():
    # profile with the wrong sign makes beta positive on the same region
    sys_, law = _heis_law(lambda x: +0.5 * x[2],
                          lambda x: np.array([0.0, 0.0, +0.5]))
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    reg = Region.box([-0.1, -0.1, 1.0], [0.1, 0.1, 2.0])
    gb = gain_bound_scan(sys_, law, lyap, reg, 256, seed=7)
    assert gb.report.violations == 256
    assert gb.report.worst_value > 0


def test_gain_bound_region_too_small_raises(bsys, lyap_p1, law_p1):
    with pytest.raises(ValueError):
        gain_bound_scan(bsys, law_p1, lyap_p1, Region.ball(10, 1e-7), 64,
                        seed=1)


# --- synthesis margin ---------------------------------------------------------------

def test_margin_zero_for_constant_profiles_at_unit_gain():
    sys_, law = _heis_law(lambda x: 0.7, lambda x: np.zeros(3))
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    cs = correction_ratio_sup(sys_, law, lyap, 1.0, Region.ball(3, 1.0), 256,
                              seed=8)
    assert cs.sup == 0.0
    assert cs.skipped == 0


def test_margin_case_study_below_one(bsys, lyap_p1, law_p1):
    cs = correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5, Region.ball(10, 1.0),
                              4096, seed=11)
    assert cs.sup < 1.0
    assert abs(cs.sup - ORACLE_C1_SUP_P1_BALL1) <= 0.02
    assert cs.skipped == 0


def test_margin_keeps_small_gradients_above_the_floor(bsys, lyap_p1, law_p1):
    # on a ball of radius 1e-7 every ||grad V|| lies in (1e-9, 1e-7), above
    # the 1e-12 floor: no point is skipped, and at p = 1 the ratio is of
    # degree 0 in the state, so the supremum is the unit ball's
    tiny = correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5,
                                Region.ball(10, 1e-7), 256, r_min=1e-9)
    unit = correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5,
                                Region.ball(10, 1.0), 256, r_min=1e-2)
    assert tiny.skipped == unit.skipped == 0
    assert math.isclose(tiny.sup, unit.sup, rel_tol=1e-12)
    assert 0.5 < tiny.sup < 1.0


def test_margin_unit_gain_equals_gradient_terms_only(bsys, lyap_p1, law_p1):
    pts = sample_region(Region.ball(10, 1.0), 256, 1e-6, 11)
    sup_direct = -np.inf
    for x in pts:
        g = lyap_p1.grad(x)
        _, vals, jac = law_p1.components_jac(x)
        phi = np.zeros(10)
        for q, (i, j) in enumerate(bsys.pairs):
            if vals[q] == 0.0:
                continue
            fi, fj = bsys.field(i, x), bsys.field(j, x)
            phi += 0.5 * ((jac[q] @ fi) * fj - (jac[q] @ fj) * fi)
        sup_direct = max(sup_direct, float(g @ phi) / float(g @ g))
    cs = correction_ratio_sup(bsys, law_p1, lyap_p1, 1.0, Region.ball(10, 1.0),
                              256, seed=11)
    assert math.isclose(cs.sup, sup_direct, rel_tol=1e-12)


def test_margin_dual_synthesis_path_matches_closed_form(bsys, lyap_p1, law_p1):
    slaw = synthesized_law(bsys, lyap_p1, 0.5, 0.1)
    a = correction_ratio_sup(bsys, slaw, lyap_p1, 0.5, Region.ball(10, 1.0), 64,
                             seed=11)
    b = correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5, Region.ball(10, 1.0),
                             64, seed=11)
    assert math.isclose(a.sup, b.sup, rel_tol=1e-10)


def test_margin_all_points_skipped_raises(bsys, law_p1):
    # ||grad V|| <= 1e-20 on the unit ball, below the 1e-12 floor throughout
    flat = LyapunovSpec(10, v=lambda x: 0.5e-20 * float(x @ x),
                        grad=lambda x: 1e-20 * np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match="vanishing gradient"):
        correction_ratio_sup(bsys, law_p1, flat, 0.5, Region.ball(10, 1.0), 16,
                             seed=11)


def test_certificate_equals_margin_identity(bsys, lyap_p1, law_p1):
    # w(x) = -||grad V||^2 + grad V . Phi for the synthesized components
    rng = np.random.default_rng(23)
    for gamma in (0.25, 0.5, 1.0):
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 10)
            w = decrease_rate(bsys, law_p1, lyap_p1, x, gamma=gamma).w
            g = lyap_p1.grad(x)
            rhs = -float(g @ g) + float(g @ correction_field(bsys, law_p1, x,
                                                             gamma=gamma))
            assert abs(w - rhs) <= 1e-10 * max(1.0, abs(w))


def test_gain_bound_counts_nonfinite_alpha_as_violation():
    # v0 is NaN on x[0] > 0, so alpha is NaN there; such a point bounds
    # nothing and must never pass the vanishing-drift check
    nan = float("nan")
    sys_, law = _heis_law(
        lambda x: -0.5 * x[2], lambda x: np.array([0.0, 0.0, -0.5]),
        v0_fn=lambda x: (np.full(2, nan) if x[0] > 0
                         else -np.asarray(x[:2], dtype=float)))
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    n_nan = int(np.sum(sample_region(Region.ball(3, 1.0), 256, 1e-6, 3)[:, 0] > 0))
    assert n_nan == 128
    gb = gain_bound_scan(sys_, law, lyap, Region.ball(3, 1.0), 256, seed=3)
    assert gb.report.n_samples == n_nan
    assert gb.report.violations == n_nan
    assert math.isfinite(gb.ratio_sup)
    assert math.isnan(gb.report.worst_value)

    # zero drift on x[0] >= 0 puts finite points into the vanishing-drift
    # check next to NaN ones on x[0] < 0; the sample ends on a finite point,
    # and the report must still keep a NaN worst value
    sys_, law = _heis_law(
        lambda x: -0.5 * x[2], lambda x: np.array([0.0, 0.0, -0.5]),
        v0_fn=lambda x: np.full(2, nan) if x[0] < 0 else np.zeros(2))
    pts = sample_region(Region.ball(3, 1.0), 256, 1e-6, 3)
    assert pts[-1][0] >= 0
    finite = pts[pts[:, 0] >= 0]
    # beta = grad V . [g_1, g_2] = (x1^2 + x2^2) / 4 - x3^2 for this profile
    n_bad = int(np.sum(0.25 * (finite[:, 0] ** 2 + finite[:, 1] ** 2)
                       - finite[:, 2] ** 2 >= 0.0))
    gb = gain_bound_scan(sys_, law, lyap, Region.ball(3, 1.0), 256, seed=3)
    assert gb.report.n_samples == 256
    assert gb.report.violations == 256 - len(finite) + n_bad
    assert math.isnan(gb.report.worst_value)
    assert gb.report.worst_point[0] < 0


def test_negdef_scan_keeps_first_nan_as_worst():
    reg = Region.ball(3, 1.0)
    pts = sample_region(reg, 64, 1e-6, 5)
    bad = pts[10]
    rep = negdef_scan(lambda X: [float("nan") if np.array_equal(x, bad)
                                 else -float(x @ x) for x in X],
                      reg, 64, seed=5)
    assert rep.violations == 1
    assert math.isnan(rep.worst_value)
    assert np.array_equal(rep.worst_point, bad)


def _reference_report(vals, pts, checked):
    # per-point running bookkeeping: the first NaN, once held, stays the
    # worst entry; before it, a strictly larger value replaces the worst
    n, violations, worst, worst_point = 0, 0, -np.inf, pts[0]
    for v, x, c in zip(vals, pts, checked):
        if not c:
            continue
        n += 1
        if not v < 0.0:
            violations += 1
        if not math.isnan(worst) and (math.isnan(v) or v > worst):
            worst, worst_point = v, x
    return n, violations, worst, worst_point


def _assert_matches_reference(vals, checked=None):
    vals = np.asarray(vals, dtype=float)
    pts = np.arange(3.0 * len(vals)).reshape(-1, 3)
    rep = _report(vals, pts, {"kind": "test"}, 4, checked=checked)
    n, violations, worst, worst_point = _reference_report(
        vals, pts, np.ones(len(vals), bool) if checked is None else checked)
    assert (rep.n_samples, rep.violations) == (n, violations)
    assert (math.isnan(rep.worst_value) and math.isnan(worst)
            or rep.worst_value == worst)
    assert np.array_equal(rep.worst_point, worst_point)
    assert rep.region == {"kind": "test"} and rep.seed == 4
    return rep


@pytest.mark.parametrize("vals, worst_index", [
    ([-3.0, -1.0, -2.0, -1.0], 1),           # tie: the first maximum wins
    ([-1.0, 5.0, float("nan"), 7.0], 2),     # a NaN after a larger value
    ([-0.5, float("nan"), float("nan")], 1),  # the first of two NaNs
    ([-np.inf, -np.inf, -np.inf], 0),        # all -inf: the first point
    ([0.0, -0.0, -1.0], 0),                  # zeros are violations
    ([np.inf, -1.0], 0),
])
def test_report_matches_per_point_reference(vals, worst_index):
    rep = _assert_matches_reference(vals)
    assert np.array_equal(rep.worst_point, [3.0 * worst_index + k
                                            for k in range(3)])


def test_report_matches_reference_on_random_masked_values():
    rng = np.random.default_rng(11)
    pool = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, np.nan, np.inf, -np.inf])
    for _ in range(200):
        k = int(rng.integers(1, 12))
        vals = rng.choice(pool, size=k)
        _assert_matches_reference(vals, checked=rng.random(k) < 0.6)
        _assert_matches_reference(vals)


def test_gain_bound_without_vanishing_drift_reports_first_point():
    # alpha = -(x1 - x2 x3) <= -0.99 on the box: every point bounds the
    # gain and none enters the vanishing-drift check
    sys_, law = _heis_law(lambda x: -0.5 * x[2],
                          lambda x: np.array([0.0, 0.0, -0.5]),
                          v0_fn=lambda x: np.array([-1.0, 0.0]))
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    reg = Region.box([1.0, -0.1, -0.1], [2.0, 0.1, 0.1])
    gb = gain_bound_scan(sys_, law, lyap, reg, 128, seed=5)
    assert math.isfinite(gb.ratio_sup)
    assert (gb.report.n_samples, gb.report.violations) == (0, 0)
    assert gb.report.worst_value == -np.inf
    assert np.array_equal(gb.report.worst_point,
                          sample_region(reg, 128, 1e-6, 5)[0])


def _nan_field_heis_law():
    base = heis3_system()

    def f2(x):
        return (np.full(3, float("nan")) if x[0] > 0
                else base.fields[1](x))

    sys_ = dataclasses.replace(base, fields=(base.fields[0], f2))
    return sys_, user_law(sys_, 1.0, 0.1, v0=lambda x: np.zeros(2),
                          profiles=lambda x: np.array([-0.5 * x[2]]),
                          profiles_jac=lambda x: (np.array([-0.5 * x[2]]),
                                                  np.array([[0.0, 0.0, -0.5]])))


def _unit_ball_lyap(grad):
    return LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x), grad=grad)


def _inf_profile_gradient_case():
    # an infinite profile gradient on x[0] > 0
    inf = float("inf")
    sys_, law = _heis_law(
        lambda x: -0.5 * x[2],
        lambda x: np.array([inf if x[0] > 0 else 0.0, 0.0, -0.5]))
    return (sys_, law, _unit_ball_lyap(lambda x: np.asarray(x, dtype=float)),
            r"pair \(1, 2\) not finite")


def _nan_field_case():
    # input field f2 is NaN on x[0] > 0, so the brackets there are NaN
    sys_, law = _nan_field_heis_law()
    return (sys_, law, _unit_ball_lyap(lambda x: np.asarray(x, dtype=float)),
            "margin ratio not finite")


def _inf_lyapunov_gradient_case():
    # grad V is infinite on x[0] > 0: the ratio there is inf / inf
    sys_, law = _heis_law(lambda x: -0.5 * x[2],
                          lambda x: np.array([0.0, 0.0, -0.5]))
    inf = float("inf")
    grad = lambda x: (np.full(3, inf) if x[0] > 0
                      else np.asarray(x, dtype=float))
    return sys_, law, _unit_ball_lyap(grad), "margin ratio not finite"


def test_gain_bound_counts_infinite_gradient_as_violation():
    # grad V is infinite on x[0] > 0; the scan contracts the brackets with
    # it, and inf * 0 there must give a violation, not a RuntimeWarning
    sys_, law, lyap, _ = _inf_lyapunov_gradient_case()
    pts = sample_region(Region.ball(3, 1.0), 256, 1e-6, 3)
    n_inf = int(np.sum(pts[:, 0] > 0))
    gb = gain_bound_scan(sys_, law, lyap, Region.ball(3, 1.0), 256, seed=3)
    _, alpha, beta = decrease_rate(sys_, law, lyap, pts)
    assert not np.isfinite(beta[pts[:, 0] > 0]).any()
    assert np.isfinite(alpha[pts[:, 0] <= 0]).all()
    assert gb.report.violations >= n_inf
    assert math.isnan(gb.report.worst_value)


@pytest.mark.parametrize("case", [_inf_profile_gradient_case, _nan_field_case,
                                  _inf_lyapunov_gradient_case])
def test_margin_nonfinite_ratio_raises(case):
    # each of these used to vanish from the supremum as a NaN ratio
    sys_, law, lyap, message = case()
    with pytest.raises(ArithmeticError, match=message):
        correction_ratio_sup(sys_, law, lyap, 0.5, Region.ball(3, 1.0), 256,
                             seed=3)


# --- blocks of points ------------------------------------------------------------

def _quartic_heis3_case():
    # heis3 built from field closures, with a synthesized law
    sys_ = system_from_fields(3, 2, heis3_system().fields, ((1, 2),),
                              name="heis3")
    lyap = LyapunovSpec(
        3, v=lambda x: 0.5 * float(x @ x) + 0.25 * float(x[2]) ** 4,
        grad=lambda x: np.array([x[0], x[1], x[2] + x[2] ** 3], dtype=_dt(x)))
    return sys_, synthesized_law(sys_, lyap, 0.5, 0.1), lyap


BLOCK_CASES = {
    "brockett10-p1": lambda: (bk.brockett_system(), bk.brockett_law(1.0, 0.5, 0.1),
                              bk.brockett_lyapunov(1.0)),
    "brockett10-p1.5": lambda: (bk.brockett_system(),
                                bk.brockett_law(1.5, 0.5, 0.1),
                                bk.brockett_lyapunov(1.5)),
    "brockett10-synthesized": lambda: (
        bk.brockett_system(), bk.brockett_law(1.0, 0.5, 0.1, mode="synthesized"),
        bk.brockett_lyapunov(1.0)),
    "heis3-from-fields": _quartic_heis3_case,
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.usefixtures("small_blocks")
def test_block_decrease_rate_rows_match_single_points(case):
    sys_, law, lyap = BLOCK_CASES[case]()
    rng = np.random.default_rng(41)
    k = SMALL_BLOCK + 6 if "synthesized" in case else 2 * SMALL_BLOCK + 6
    xs = rng.uniform(-1.5, 1.5, (k, sys_.n))
    if sys_.n == 10:
        # exact-zero bracket coordinates: profiles on their sign switch
        rows = np.arange(0, k, 3)
        xs[rows, 4 + rng.integers(0, 6, len(rows))] = 0.0
        xs[::7, 4:] = 0.0
    for gamma in (None, 1.0):
        block = decrease_rate(sys_, law, lyap, xs, gamma=gamma)
        assert all(t.shape == (k,) for t in block)
        for r, x in enumerate(xs):
            ref = decrease_rate(sys_, law, lyap, x, gamma=gamma)
            assert all(type(t) is float for t in ref)
            got = np.array([t[r] for t in block])
            assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    one = decrease_rate(sys_, law, lyap, xs[:1])
    ref = decrease_rate(sys_, law, lyap, xs[0])
    assert all(t.shape == (1,) for t in one)
    assert np.all(np.abs(np.ravel(one) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.usefixtures("small_blocks")
def test_scan_terms_match_the_vector_path(case):
    # the scans project the bracket algebra on grad V before any vector is
    # formed; per point, alpha, beta and the margin ratio must equal the
    # projections of the vector fields
    sys_, law, lyap = BLOCK_CASES[case]()
    rng = np.random.default_rng(44)
    k = 40 if "synthesized" in case else SMALL_BLOCK + 6
    xs = rng.uniform(-1.5, 1.5, (k, sys_.n))
    if sys_.n == 10:
        xs[::3, 4 + rng.integers(0, 6)] = 0.0    # profiles on a sign switch
    _, alpha, beta = decrease_rate(sys_, law, lyap, xs)
    _, vals, jac = _block.rows(law.components_jac, xs)
    g = _block.rows(lyap.grad, xs)
    gphi, fail = _correction(sys_, xs, vals, jac, 0.5, g)
    assert fail is None
    ratio = gphi / np.einsum("rn,rn->r", g, g)
    for r, x in enumerate(xs):
        gv = np.asarray(lyap.grad(x), dtype=float)
        want = (gv @ drift_field(law, x),
                float(np.sum(pair_bracket_field(law, x) @ gv)),
                gv @ correction_field(sys_, law, x, gamma=0.5) / (gv @ gv))
        for got, ref in zip((alpha[r], beta[r], ratio[r]), want):
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def _reference_gain_scan(sys_, law, lyap, region, n, seed):
    # the per-point loop over single-point certificates
    pts = sample_region(region, n, 1e-6, seed)
    ratio_sup, vals, checked = -np.inf, [], []
    for x in pts:
        _, a, b = decrease_rate(sys_, law, lyap, x, gamma=1.0)
        finite = math.isfinite(a) and math.isfinite(b)
        if finite and abs(a) > TOL_ALPHA:
            ratio_sup = max(ratio_sup, -b / a)
        vals.append(b if finite else float("nan"))
        checked.append(not (finite and abs(a) > TOL_ALPHA))
    return ratio_sup, _reference_report(vals, pts, checked)


def _reference_margin_scan(sys_, law, lyap, gamma, region, n, seed):
    sup, skipped = -np.inf, 0
    for x in sample_region(region, n, 1e-6, seed):
        g = np.asarray(lyap.grad(x), dtype=float)
        if g @ g < GRAD_FLOOR * GRAD_FLOOR:
            skipped += 1
            continue
        phi = correction_field(sys_, law, x, gamma=gamma)
        sup = max(sup, float(g @ phi) / float(g @ g))
    return sup, skipped


def _close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("case", ["brockett10-p1", "brockett10-p1.5",
                                  "heis3-vanishing-drift"])
@pytest.mark.usefixtures("small_blocks")
def test_scans_match_per_point_reference(case):
    if case == "heis3-vanishing-drift":
        sys_, law = _heis_law(lambda x: -0.5 * x[2] * (1.0 + x[0]),
                              lambda x: np.array([-0.5 * x[2], 0.0,
                                                  -0.5 * (1.0 + x[0])]),
                              v0_fn=lambda x: np.array([-x[0] * x[1], 0.0]))
        lyap = _unit_ball_lyap(lambda x: np.asarray(x, dtype=float))
        region = Region.ball(3, 1.0)
    else:
        sys_, law, lyap = BLOCK_CASES[case]()
        region = Region.ball(10, 2.0)
    n = 3 * SMALL_BLOCK + 17
    gb = gain_bound_scan(sys_, law, lyap, region, n, seed=9)
    ratio_sup, (n_checked, violations, worst, worst_point) = \
        _reference_gain_scan(sys_, law, lyap, region, n, 9)
    assert _close(gb.ratio_sup, ratio_sup)
    assert _close(gb.gamma_max, 1.0 / math.sqrt(ratio_sup) if ratio_sup > 0
                  else math.inf)
    assert (gb.report.n_samples, gb.report.violations) == (n_checked, violations)
    assert _close(gb.report.worst_value, worst)
    assert np.array_equal(gb.report.worst_point, worst_point)
    for gamma in (0.5, 1.0):
        cs = correction_ratio_sup(sys_, law, lyap, gamma, region, n, seed=9)
        sup, skipped = _reference_margin_scan(sys_, law, lyap, gamma, region,
                                              n, 9)
        assert _close(cs.sup, sup) and cs.skipped == skipped


def _flagged(fn, bad_points, flagged):
    """``fn`` with ``flagged(x)`` in place of its value at ``bad_points``;
    it takes one state at a time, so that the flags see every point."""
    def wrapped(x):
        if any(np.array_equal(x, b) for b in bad_points):
            return flagged(fn(x))
        return fn(x)
    return per_point(wrapped)


def _bad_profile(vals_jac, q=None):
    vals, jac = vals_jac
    vals = np.array(vals, dtype=float)
    vals[q] = float("nan")
    return vals, jac


def _brockett_case(profile_at=(), jacobian_at=(), q_bad=4):
    # closed-form p = 1 law whose pair q_bad has a NaN profile at the points
    # profile_at, on a system whose Jacobian of f_2 is NaN at jacobian_at
    bsys = bk.brockett_system()
    sys_ = dataclasses.replace(bsys, jacobians=(
        bsys.jacobians[0],
        _flagged(bsys.jacobians[1], jacobian_at, lambda d: np.full_like(d, np.nan)),
        *bsys.jacobians[2:]))
    law = bk.brockett_law(1.0, 0.5, 0.1)
    profiles_jac = _flagged(lambda x: bk._profiles_jac(1.0, x), profile_at,
                            lambda vj: _bad_profile(vj, q_bad))
    law = dataclasses.replace(
        law, system=sys_,
        components_jac=lambda x: (-np.asarray(x[:4], dtype=float),
                                  *profiles_jac(x)))
    return sys_, law, bk.brockett_lyapunov(1.0)


@pytest.mark.usefixtures("small_blocks")
def test_block_error_names_first_failing_point_and_pair():
    xs = np.random.default_rng(43).uniform(0.2, 1.2, (2 * SMALL_BLOCK, 10))
    pair = bk.brockett_system().pairs[4]
    for k in (0, 5, SMALL_BLOCK + 3):
        sys_, law, lyap = _brockett_case(profile_at=(xs[k], xs[k + 2]))
        message = (rf"pair {re.escape(str(pair))} not finite at "
                   rf"x={re.escape(str(xs[k].tolist()))}")
        with pytest.raises(ArithmeticError, match=message):
            decrease_rate(sys_, law, lyap, xs)
    # a non-finite Jacobian at an earlier point wins over a later bad profile
    sys_, law, lyap = _brockett_case(profile_at=(xs[9],), jacobian_at=(xs[4],))
    with pytest.raises(ValueError, match="non-finite Jacobian"):
        decrease_rate(sys_, law, lyap, xs)
    # a bad profile wins over a later bad Jacobian; at one point the
    # Jacobian check comes first
    for j in (9, 12):
        sys_, law, lyap = _brockett_case(profile_at=(xs[9],),
                                         jacobian_at=(xs[j],))
        error = ArithmeticError if j > 9 else ValueError
        with pytest.raises(error):
            decrease_rate(sys_, law, lyap, xs)


@pytest.mark.usefixtures("small_blocks")
def test_margin_scan_raises_for_first_failing_point():
    region = Region.ball(10, 1.0)
    pts = sample_region(region, 2 * SMALL_BLOCK, 1e-6, 5)
    grad = bk.brockett_lyapunov(1.0).grad
    inf_grad = _flagged(grad, (pts[7],), lambda g: np.full_like(g, np.inf))
    for profile_k, message in ((3, r"pair \(2, 4\) not finite at x="),
                               (7, r"pair \(2, 4\) not finite at x="),
                               (11, "margin ratio not finite at x=")):
        sys_, law, lyap = _brockett_case(profile_at=(pts[profile_k],))
        lyap = dataclasses.replace(lyap, grad=inf_grad)
        x_bad = pts[min(profile_k, 7)]
        with pytest.raises(ArithmeticError, match=message
                           + re.escape(str(x_bad.tolist()))):
            correction_ratio_sup(sys_, law, lyap, 0.5, region, 2 * SMALL_BLOCK,
                                 seed=5)


@pytest.mark.parametrize("fn", [lambda X: -1.0, lambda X: -np.ones(len(X) - 1),
                                lambda X: -np.ones((len(X), 1))])
def test_negdef_scan_requires_one_value_per_point(fn):
    with pytest.raises(ValueError, match=r"one value per sampled point"):
        negdef_scan(fn, Region.ball(3, 1.0), 32, seed=1)


def _counting(fn, counts, key):
    def counted(x):
        counts[key] += 1
        return fn(x)
    return counted


def _counted_case(bsys, law_p1, lyap_p1, counts, wrap):
    csys = dataclasses.replace(
        bsys,
        fields=tuple(wrap(_counting(f, counts, ("field", k)))
                     for k, f in enumerate(bsys.fields)),
        jacobians=tuple(wrap(_counting(d, counts, ("jacobian", k)))
                        for k, d in enumerate(bsys.jacobians)))
    law = dataclasses.replace(
        law_p1, system=csys, components_jac=wrap(
            _counting(law_p1.components_jac, counts, "components_jac")))
    lyap = dataclasses.replace(
        lyap_p1, grad=wrap(_counting(lyap_p1.grad, counts, "grad")))
    return csys, law, lyap


@pytest.mark.usefixtures("small_blocks")
def test_scans_call_each_callable_once_per_point(bsys, law_p1, lyap_p1):
    # the stacked path: callables that take one state at a time
    counts = collections.Counter()
    csys, law, lyap = _counted_case(bsys, law_p1, lyap_p1, counts, per_point)
    n = 2 * SMALL_BLOCK + 9
    expected = {"components_jac": n, "grad": n,
                **{(kind, k): n for kind in ("field", "jacobian")
                   for k in range(4)}}
    counts.clear()
    gain_bound_scan(csys, law, lyap, Region.ball(10, 2.0), n, seed=3)
    assert counts == expected
    counts.clear()
    cs = correction_ratio_sup(csys, law, lyap, 0.5, Region.ball(10, 1.0), n,
                              seed=3)
    assert cs.skipped == 0
    assert counts == expected


@pytest.mark.usefixtures("small_blocks")
def test_scans_call_block_capable_callables_once_per_block(bsys, law_p1,
                                                           lyap_p1):
    # the block path: the brockett10 callables pass the probe, so does a
    # counting wrapper around them, and each runs once per block of points
    counts = collections.Counter()
    csys, law, lyap = _counted_case(bsys, law_p1, lyap_p1, counts,
                                    lambda fn: fn)
    n = 2 * SMALL_BLOCK + 9
    blocks = 3
    per_block = {"components_jac": blocks,
                 **{(kind, k): blocks for kind in ("field", "jacobian")
                    for k in range(4)}}
    counts.clear()
    gain_bound_scan(csys, law, lyap, Region.ball(10, 2.0), n, seed=3)
    assert counts == {**per_block, "grad": blocks}
    counts.clear()
    correction_ratio_sup(csys, law, lyap, 0.5, Region.ball(10, 1.0), n, seed=3)
    # the margin scan takes every gradient in one call, before it skips
    assert counts == {**per_block, "grad": 1}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.usefixtures("small_blocks")
def test_gain_scan_memory_stays_flat(bsys, law_p1, lyap_p1):
    # callable values are stacked a block at a time, not for the whole sample
    region = Region.ball(10, 2.0)
    gain_bound_scan(bsys, law_p1, lyap_p1, region, SMALL_BLOCK, seed=1)
    peak = _traced_peak(
        lambda: gain_bound_scan(bsys, law_p1, lyap_p1, region, 4096, seed=1))
    assert peak < 2 * 2 ** 20
    # brockett10's constant Jacobians are contracted with grad V as one
    # matrix each: the margin scan traces 0.72 MiB, and stacking them per
    # point, a (SMALL_BLOCK, m, n, n) array of 800 KB a block, takes it to
    # 1.48 MiB
    region = Region.ball(10, 1.0)
    correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5, region, SMALL_BLOCK,
                         seed=1)
    peak = _traced_peak(lambda: correction_ratio_sup(
        bsys, law_p1, lyap_p1, 0.5, region, 2048, seed=1))
    assert peak < 0.9 * 2 ** 20


def test_default_blocks_stay_below_the_sobol_table(bsys, law_p1, lyap_p1):
    # at the default BLOCK (2048) the 4096-point gain scan takes two blocks
    # and traces 3.38 MiB, the 2048-point margin scan one and 3.21 MiB, both
    # below the 4.44 MiB that loading the Sobol table traces in a process's
    # first scan; in one block of 4096 the gain scan traces 6.38 MiB, and
    # with one copy of each constant Jacobian per point the two scans trace
    # 6.13 and 5.96 MiB
    assert lyapunov.BLOCK == 2048
    region = Region.ball(10, 2.0)
    gain_bound_scan(bsys, law_p1, lyap_p1, region, 16, seed=1)
    peak = _traced_peak(
        lambda: gain_bound_scan(bsys, law_p1, lyap_p1, region, 4096, seed=1))
    assert peak < 4 * 2 ** 20
    region = Region.ball(10, 1.0)
    correction_ratio_sup(bsys, law_p1, lyap_p1, 0.5, region, 16, seed=1)
    peak = _traced_peak(lambda: correction_ratio_sup(
        bsys, law_p1, lyap_p1, 0.5, region, 2048, seed=1))
    assert peak < 3.6 * 2 ** 20


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_results_do_not_depend_on_the_block_size(p, monkeypatch):
    # brockett10's Jacobians have at most one nonzero per column, so their
    # contraction with grad V is exact whatever the block: the scans and the
    # block terms come out bit for bit alike in blocks of 1 (each point on
    # its own), 7 and 256 points and at the default size (one block here)
    sys_, law, lyap = BLOCK_CASES[f"brockett10-p{p:g}"]()
    n = 600
    xs = np.random.default_rng(45).uniform(-1.5, 1.5, (n, 10))
    xs[::5, 4 + np.arange(0, n, 5) % 6] = 0.0    # profiles on a sign switch

    def results():
        gb = gain_bound_scan(sys_, law, lyap, Region.ball(10, 2.0), n, seed=4)
        return (np.array(decrease_rate(sys_, law, lyap, xs)),
                (gb.ratio_sup, gb.gamma_max, gb.report.to_json()),
                correction_ratio_sup(sys_, law, lyap, 0.5,
                                     Region.ball(10, 1.0), n, seed=4))

    want = results()
    for size in (1, 7, 256):
        monkeypatch.setattr(lyapunov, "BLOCK", size)
        got = results()
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


# --- constant Jacobians -----------------------------------------------------------

def _copied(jac):
    """``jac`` with a fresh array for every call: a block gets one matrix
    per point where ``jac`` broadcasts one matrix over the block."""
    return lambda x: np.array(jac(x))


def _constant(mat):
    """Jacobian that returns ``mat``, broadcast over the points of a block."""
    return lambda x: mat if np.ndim(x) == 1 else np.broadcast_to(
        mat, np.shape(x)[:-1] + mat.shape)


def _with_jacobians(sys_, law, jacobians):
    sys_ = dataclasses.replace(sys_, jacobians=tuple(jacobians))
    return sys_, dataclasses.replace(law, system=sys_)


@pytest.mark.parametrize("broadcast", ["all", "first", "none"])
@pytest.mark.usefixtures("small_blocks")
def test_constant_jacobians_match_copied_per_point_jacobians(
        bsys, law_p1, lyap_p1, broadcast):
    # brockett10's Jacobians broadcast one matrix over a block; the same
    # matrices copied per point are the oracle, bit for bit, for the block
    # terms and both scans, with all, one or none of them broadcast
    copied = [_copied(j) for j in bsys.jacobians]
    keep = {"all": 4, "first": 1, "none": 0}[broadcast]
    sys_, law = _with_jacobians(
        bsys, law_p1, [*bsys.jacobians[:keep], *copied[keep:]])
    ref_sys, ref_law = _with_jacobians(bsys, law_p1, copied)
    X = np.random.default_rng(3).uniform(-1.5, 1.5, (SMALL_BLOCK, 10))
    assert all(_block.blockwise(jac, 10) for jac in copied)
    assert [jac(X).strides[0] == 0 for jac in sys_.jacobians] == (
        [True] * keep + [False] * (4 - keep))
    xs = np.random.default_rng(8).uniform(-1.5, 1.5, (2 * SMALL_BLOCK + 9, 10))
    xs[::5, 6] = 0.0    # profiles on a sign switch
    for got, ref in zip(decrease_rate(sys_, law, lyap_p1, xs),
                        decrease_rate(ref_sys, ref_law, lyap_p1, xs)):
        assert np.array_equal(got, ref)
    n = 2 * SMALL_BLOCK + 9
    got = gain_bound_scan(sys_, law, lyap_p1, Region.ball(10, 2.0), n, seed=2)
    ref = gain_bound_scan(ref_sys, ref_law, lyap_p1, Region.ball(10, 2.0), n,
                          seed=2)
    assert (got.ratio_sup, got.gamma_max) == (ref.ratio_sup, ref.gamma_max)
    assert got.report.to_json() == ref.report.to_json()
    got = correction_ratio_sup(sys_, law, lyap_p1, 0.5, Region.ball(10, 1.0),
                               n, seed=2)
    assert got == correction_ratio_sup(ref_sys, ref_law, lyap_p1, 0.5,
                                       Region.ball(10, 1.0), n, seed=2)


@pytest.mark.usefixtures("small_blocks")
def test_nonfinite_constant_jacobian_fails_from_the_first_row(bsys, law_p1,
                                                             lyap_p1):
    # a constant Jacobian that is not finite is so at every point: its one
    # matrix is checked, and the first row fails, as per point; the Jacobian
    # error comes before a bad profile at a later row
    mat = np.array(bsys.jacobians[1](np.zeros(10)))
    const = _constant(mat)
    cases = [_with_jacobians(bsys, law_p1, jacs) for jacs in (
        [bsys.jacobians[0], const, *bsys.jacobians[2:]],
        [bsys.jacobians[0], _copied(const), *bsys.jacobians[2:]])]
    assert [_block.blockwise(s.jacobians[1], 10) for s, _ in cases] == [
        True, True]
    mat[4, 0] = np.nan    # after the block probe, which remembers its verdict
    xs = np.random.default_rng(4).uniform(0.2, 1.2, (SMALL_BLOCK + 3, 10))
    _, vals, jac = _block.rows(law_p1.components_jac, xs)
    vals[5:, 2] = np.nan
    g = _block.rows(lyap_p1.grad, xs)
    for sys_, law in cases:
        _, _, fail = _pair_bracket_terms(sys_, xs, vals, jac, g=g)
        assert fail[0] == 0 and type(fail[1]) is ValueError
        assert str(fail[1]) == JACOBIAN_ERROR
        for fn in (lambda: decrease_rate(sys_, law, lyap_p1, xs),
                   lambda: correction_ratio_sup(sys_, law, lyap_p1, 0.5,
                                                Region.ball(10, 1.0), SMALL_BLOCK,
                                                seed=1)):
            with pytest.raises(ValueError, match=re.escape(JACOBIAN_ERROR)):
                fn()


def test_decrease_rate_of_an_empty_or_misshapen_block(bsys, law_p1, lyap_p1):
    empty = np.zeros((0, 10))
    rate = decrease_rate(bsys, law_p1, lyap_p1, empty)
    assert all(t.shape == (0,) and t.dtype == float for t in rate)
    closed = bk.brockett_decrease_rate(1.0, 0.5, empty)
    assert closed.shape == (0,) and closed.dtype == float
    for shape in ((0, 3), (5, 3), (3,), (2, 2, 10)):
        with pytest.raises(ValueError, match=re.escape(
                f"state must have shape (10,) or (k, 10), got {shape}")):
            decrease_rate(bsys, law_p1, lyap_p1, np.zeros(shape))
