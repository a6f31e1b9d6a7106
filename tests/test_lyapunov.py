import dataclasses
import json
import math

import numpy as np
import pytest

from oscstab import brockett as bk
from oscstab.controller import synthesized_law, user_law
from oscstab.lyapunov import (DefinitenessReport, LyapunovSpec,
                              correction_field, correction_ratio_sup,
                              decrease_rate, gain_bound_scan, negdef_scan)
from oscstab.sampling import Region, sample_region

from conftest import heis3_system

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
    rep = negdef_scan(lambda x: -float(x @ x), Region.ball(4, 2.0), 2000, seed=3)
    assert rep.violations == 0
    assert rep.worst_value < 0


def test_negdef_scan_positive_quadratic_all_violations():
    rep = negdef_scan(lambda x: +float(x @ x), Region.ball(4, 2.0), 1000, seed=3)
    assert rep.violations == 1000
    assert rep.worst_value > 0
    assert np.linalg.norm(rep.worst_point) <= 2.0
    assert math.isclose(rep.worst_value, float(rep.worst_point @ rep.worst_point),
                        rel_tol=1e-12)


def test_negdef_scan_is_deterministic():
    fn = lambda x: float(np.sin(x).sum() - x @ x)
    r1 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=99)
    r2 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=99)
    assert r1.to_json() == r2.to_json()
    assert np.array_equal(r1.worst_point, r2.worst_point)
    r3 = negdef_scan(fn, Region.ball(3, 1.5), 512, seed=100)
    assert r3.to_json() != r1.to_json()


def test_negdef_scan_respects_inner_radius():
    seen = []
    negdef_scan(lambda x: seen.append(np.linalg.norm(x)) or -1.0,
                Region.ball(3, 1.0), 256, r_min=0.25, seed=1)
    assert min(seen) >= 0.25
    with pytest.raises(ValueError, match="r_min"):
        negdef_scan(lambda x: -1.0, Region.ball(3, 1.0), 16, r_min=0.0, seed=1)


def test_negdef_scan_box_region_and_nan_counts_as_violation():
    reg = Region.box([-1, -1], [2, 2])
    rep = negdef_scan(lambda x: float("nan"), reg, 64, seed=5)
    assert rep.violations == 64
    rep2 = negdef_scan(lambda x: -1.0, reg, 64, seed=5)
    assert rep2.violations == 0
    assert rep2.region["kind"] == "box"


def test_report_serialization_roundtrip():
    rep = negdef_scan(lambda x: -1.0, Region.ball(2, 1.0), 32, seed=11)
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
    cs = correction_ratio_sup(sys_, lyap, 1.0, Region.ball(3, 1.0), 256,
                              seed=8, law=law)
    assert cs.sup == 0.0
    assert cs.skipped == 0


def test_margin_case_study_below_one(bsys, lyap_p1, law_p1):
    cs = correction_ratio_sup(bsys, lyap_p1, 0.5, Region.ball(10, 1.0), 4096,
                              seed=11, law=law_p1)
    assert cs.sup < 1.0
    assert abs(cs.sup - ORACLE_C1_SUP_P1_BALL1) <= 0.02
    assert cs.skipped == 0


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
    cs = correction_ratio_sup(bsys, lyap_p1, 1.0, Region.ball(10, 1.0), 256,
                              seed=11, law=law_p1)
    assert math.isclose(cs.sup, sup_direct, rel_tol=1e-12)


def test_margin_dual_synthesis_path_matches_closed_form(bsys, lyap_p1, law_p1):
    a = correction_ratio_sup(bsys, lyap_p1, 0.5, Region.ball(10, 1.0), 64,
                             seed=11)
    b = correction_ratio_sup(bsys, lyap_p1, 0.5, Region.ball(10, 1.0), 64,
                             seed=11, law=law_p1)
    assert math.isclose(a.sup, b.sup, rel_tol=1e-10)


def test_margin_all_points_skipped_raises(bsys, lyap_p1, law_p1):
    with pytest.raises(ValueError, match="vanishing gradient"):
        correction_ratio_sup(bsys, lyap_p1, 0.5, Region.ball(10, 1.0), 16,
                             seed=11, law=law_p1, grad_floor=1e9)


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
    rep = negdef_scan(lambda x: float("nan") if np.array_equal(x, bad)
                      else -float(x @ x), reg, 64, seed=5)
    assert rep.violations == 1
    assert math.isnan(rep.worst_value)
    assert np.array_equal(rep.worst_point, bad)


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


@pytest.mark.parametrize("case", [_inf_profile_gradient_case, _nan_field_case,
                                  _inf_lyapunov_gradient_case])
def test_margin_nonfinite_ratio_raises(case):
    # each of these used to vanish from the supremum as a NaN ratio
    sys_, law, lyap, message = case()
    with pytest.raises(ArithmeticError, match=message):
        correction_ratio_sup(sys_, lyap, 0.5, Region.ball(3, 1.0), 256,
                             seed=3, law=law)
