import hashlib
import math

import numpy as np
import pytest

from oscstab import _fastpath, brockett as bk
from oscstab.lyapunov import decrease_rate, negdef_scan
from oscstab.sampling import Region, sample_region
from oscstab.vecfield import _bracket_columns


def test_field_values(bsys):
    e = np.eye(10)
    assert np.array_equal(bsys.field(1, np.zeros(10)), e[0])
    x = np.zeros(10)
    x[1] = 1.0
    assert bsys.field(1, x)[4] == -1.0
    # actuated block of every field is a unit vector
    for k in range(1, 5):
        assert np.array_equal(bsys.field(k, np.zeros(10)), e[k - 1])


def test_all_six_brackets_are_constant_units(bsys):
    rng = np.random.default_rng(31)
    e = np.eye(10)
    for _ in range(10):
        x = rng.uniform(-4, 4, 10)
        brackets = _bracket_columns(bsys, x)[:, 4:]
        for q in range(len(bsys.pairs)):
            assert np.allclose(brackets[:, q], 2.0 * e[4 + q], atol=1e-12)


def test_iterated_brackets_vanish(bsys):
    # brackets are constant fields, so their derivative along anything is 0;
    # equivalently D f_k annihilates the bracket directions
    rng = np.random.default_rng(32)
    for _ in range(10):
        x = rng.uniform(-3, 3, 10)
        for br in _bracket_columns(bsys, x)[:, 4:].T:
            for k in range(1, 5):
                val = bsys.jacobian(k, x) @ br  # [f_k, f^I] = -Df_k f^I
                assert np.max(np.abs(val)) <= 1e-12


def test_profile_values():
    x = np.zeros(10)
    x[4] = 1.0
    assert bk.brockett_vtilde(1.0, x)[0] == -0.5
    assert np.allclose(bk.brockett_vtilde(1.7, np.zeros(10)), 0.0)
    x = np.zeros(10)
    x[9] = -2.0
    assert math.isclose(bk.brockett_vtilde(1.5, x)[5], 2.0, rel_tol=1e-15)


def test_certificate_closed_form_examples():
    e = np.eye(10)
    assert bk.brockett_decrease_rate(1.0, 0.5, e[0]) == -1.0
    assert bk.brockett_decrease_rate(1.0, 0.5, e[4]) == -0.25
    assert bk.brockett_decrease_rate(1.0, 0.5, np.zeros(10)) == 0.0
    w, a, b, kink = bk.brockett_decrease_parts(1.0, 0.5, e[0])
    assert (a, b, kink) == (-1.0, 0.0, True)
    x = np.full(10, 0.3)
    assert not bk.brockett_decrease_parts(1.0, 0.5, x)[3]


def test_closed_form_agrees_with_generic_certificate(bsys):
    rng = np.random.default_rng(33)
    for p in (1.0, 1.5):
        lyap = bk.brockett_lyapunov(p)
        law = bk.brockett_law(p, 0.5, 0.1)
        for _ in range(100):
            x = rng.uniform(-2, 2, 10)
            x[4:][np.abs(x[4:]) < 0.01] = 0.011  # keep off the kink set
            w_gen = decrease_rate(bsys, law, lyap, x).w
            w_closed = bk.brockett_decrease_rate(p, 0.5, x)
            assert abs(w_gen - w_closed) <= 1e-9 * max(1.0, abs(w_gen))


def test_synthesized_profiles_match_closed_forms(bsys):
    from oscstab.controller import synthesize_components

    rng = np.random.default_rng(34)
    for p in (1.0, 1.5):
        lyap = bk.brockett_lyapunov(p)
        for _ in range(100):
            x = rng.uniform(-2, 2, 10)
            _, vt = synthesize_components(bsys, lyap, x)
            assert np.max(np.abs(vt - bk.brockett_vtilde(p, x))) <= 1e-10


def test_gain_interval_values():
    lo, hi = bk.stable_gain_interval(1.0)
    assert lo == 0.0 and math.isclose(hi, math.sqrt(2.0), rel_tol=1e-15)
    lo, hi = bk.stable_gain_interval(1.5, H=1.0)
    assert math.isclose(hi, 1.0, rel_tol=1e-15)
    assert bk.stable_gain_interval(1.5, H=1e-9)[1] > 1e6
    with pytest.raises(ValueError, match="H"):
        bk.stable_gain_interval(1.5)
    with pytest.raises(ValueError, match=">= 1"):
        bk.stable_gain_interval(0.5)


def test_gain_interval_soundness_power_family():
    # p = 3/2, H = 1: at 0.9 x the interval end the certificate stays negative
    # on the sampled domain (the ball of radius 1 keeps the bracket block
    # inside the design domain)
    gamma = 0.9 * bk.stable_gain_interval(1.5, H=1.0)[1]
    rep = negdef_scan(lambda x: bk.brockett_decrease_rate(1.5, gamma, x),
                      Region.ball(10, 1.0), 10_000, seed=17)
    assert rep.violations == 0


def test_gain_interval_p1_upper_end_not_certified_by_scan():
    # the published global interval for p = 1 ends at sqrt(2), but the
    # certificate evaluated through the bracket expansion turns positive near
    # the pure-actuated subspace once gamma exceeds about 2/sqrt(3); the scan
    # documents that finding (see the decrease-rate cross terms)
    gamma = 0.9 * math.sqrt(2.0)
    rep = negdef_scan(lambda x: bk.brockett_decrease_rate(1.0, gamma, x),
                      Region.ball(10, 2.0), 10_000, seed=17)
    assert rep.violations > 0
    # while at the simulation gain the certificate is cleanly negative
    rep2 = negdef_scan(lambda x: bk.brockett_decrease_rate(1.0, 0.5, x),
                       Region.ball(10, 2.0), 10_000, seed=17)
    assert rep2.violations == 0


def test_bracket_matrix_columns_constant(bsys):
    rng = np.random.default_rng(35)
    ref = _bracket_columns(bsys, np.zeros(10))[:, 4:]
    for _ in range(100):
        x = rng.uniform(-5, 5, 10)
        cols = _bracket_columns(bsys, x)[:, 4:]
        assert np.array_equal(cols, ref)


def test_presets():
    assert bk.PRESETS["fig1-left"]["p"] == 1.0
    assert bk.PRESETS["fig1-right"]["p"] == 1.5
    assert bk.PRESETS["fig1-right"]["x0"] == (1.0, -1.0) * 5


def test_law_modes_and_bad_mode():
    # the compiled kernel recognises the closed-form law, with its exponent,
    # and declines the synthesized one
    law = bk.brockett_law(1.5, 0.5, 0.1, mode="closed-form")
    assert _fastpath.closed_form_exponent(law) == 1.5
    slaw = bk.brockett_law(1.5, 0.5, 0.1, mode="synthesized")
    assert _fastpath.closed_form_exponent(slaw) is None
    with pytest.raises(ValueError, match="mode"):
        bk.brockett_law(1.0, 0.5, 0.1, mode="magic")


def test_candidate_requires_p_at_least_one():
    with pytest.raises(ValueError, match=">= 1"):
        bk.brockett_lyapunov(0.9)


@pytest.mark.parametrize("knob, value", [
    (k, v) for k in ("p", "gamma", "eps") for v in (math.nan, math.inf)])
def test_non_finite_law_parameters_are_refused(knob, value):
    # a check like ``gamma < 0`` is False for NaN and for inf, so both used
    # to build a law whose runs were NaN throughout
    kw = {"p": 1.0, "gamma": 0.5, "eps": 0.1, knob: value}
    for mode in ("closed-form", "synthesized"):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            bk.brockett_law(mode=mode, **kw)
    if knob == "p":
        with pytest.raises(ValueError, match="p must be finite"):
            bk.brockett_lyapunov(value)
        with pytest.raises(ValueError, match="p must be finite"):
            bk.stable_gain_interval(value, H=1.0)


def _reference_decrease_parts(p, gamma, x):
    # the per-point loop: a pair on its sign switch is skipped and flagged
    x = np.asarray(x, dtype=float)
    alpha = -float(np.sum(x[:4] ** 2))
    gv = x.copy()
    gv[4:] = np.sign(x[4:]) * np.abs(x[4:]) ** (2.0 * p - 1.0)
    lf = np.empty(4)
    lf[0] = x[0] - gv[4] * x[1] - gv[5] * x[2] - gv[6] * x[3]
    lf[1] = x[1] + gv[4] * x[0] - gv[7] * x[2] - gv[8] * x[3]
    lf[2] = x[2] + gv[5] * x[0] + gv[7] * x[1] - gv[9] * x[3]
    lf[3] = x[3] + gv[6] * x[0] + gv[8] * x[1] + gv[9] * x[2]
    fic = (-x[1], -x[2], -x[3], -x[2], -x[3], -x[3])
    fjc = (x[0], x[0], x[0], x[1], x[1], x[2])
    beta, kink = 0.0, False
    for q, (i, j) in enumerate(bk.brockett_system().pairs):
        xc = x[4 + q]
        if xc == 0.0:
            kink = True
            continue
        beta -= abs(xc) ** (4.0 * p - 2.0)
        cross = fic[q] * lf[j - 1] - fjc[q] * lf[i - 1]
        beta -= 0.25 * (2.0 * p - 1.0) * abs(xc) ** (2.0 * p - 2.0) * cross
    return alpha + gamma * gamma * beta, alpha, beta, kink


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_block_decrease_parts_match_per_row_reference(p):
    rng = np.random.default_rng(36)
    xs = rng.uniform(-2.0, 2.0, (300, 10))
    rows = np.arange(0, 300, 3)
    xs[rows, 4 + rng.integers(0, 6, len(rows))] = 0.0  # one pair on its switch
    xs[::7, 4:] = 0.0                            # every pair on its switch
    xs[::11, :4] = 0.0                           # no drift term
    xs[5] = 0.0
    w, alpha, beta, kink = bk.brockett_decrease_parts(p, 0.5, xs)
    assert w.shape == alpha.shape == beta.shape == kink.shape == (300,)
    assert 0 < np.count_nonzero(kink) < 300
    for r, x in enumerate(xs):
        ref = _reference_decrease_parts(p, 0.5, x)
        single = bk.brockett_decrease_parts(p, 0.5, x)
        assert single[3] is ref[3] and bool(kink[r]) is ref[3]
        # a state is a block of one: its terms are its block row's bits
        assert _bits(single[:3]) == _bits((w[r], alpha[r], beta[r]))
        assert np.all(np.abs(np.subtract(single[:3], ref[:3]))
                      <= 1e-14 * np.maximum(1.0, np.abs(ref[:3])))
    assert np.array_equal(bk.brockett_decrease_rate(p, 0.5, xs), w)


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()
                          ).hexdigest()


# sha256 of (w, alpha, beta) on verify's certificate sample (ball of radius
# 2, 10000 points, r_min 1e-6, seed 2024) at gamma 0.5, as computed column
# by column before the terms read one contiguous row per coordinate
VERIFY_SAMPLE_PARTS = {
    1.0: ("c8175e9d4eddc853145eef31f4c742418c8bb444ce6a042fbb95ab00600fefc7",
          "4d4c519a58d67cab26fa35e9bb0326f25c53447ae633f208d4b16e3d7b153aa5",
          "81640dd1b5504effa0a70d3172af083e8b71c785f808c588c31c27cb4a59b52d"),
    1.5: ("2c36c0876728e53f03e226367818b206c50744f01de51d50dd4349467f61bbd2",
          "4d4c519a58d67cab26fa35e9bb0326f25c53447ae633f208d4b16e3d7b153aa5",
          "f38ae2fe5edcade3aa7409e4f49c3211ddad9ed214fcd655dbd8f478e927bcaf"),
}


@pytest.mark.parametrize("p", sorted(VERIFY_SAMPLE_PARTS))
def test_certificate_terms_on_the_verify_sample_are_pinned(p):
    xs = sample_region(Region.ball(10, 2.0), 10_000, 1e-6, 2024)
    w, alpha, beta, _ = bk.brockett_decrease_parts(p, 0.5, xs)
    assert tuple(map(_digest, (w, alpha, beta))) == VERIFY_SAMPLE_PARTS[p]


def _special_block():
    # uniform rows with about 30% of the entries replaced by zeros of both
    # signs, NaN, infinities, subnormals and values whose powers underflow
    # or overflow
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                         1e-310, -2.5e-309, 1e-160, -3e-170, 1e200])
    rng = np.random.default_rng(37)
    xs = rng.uniform(-2.0, 2.0, (600, 10))
    pick = rng.random((600, 10)) < 0.3
    xs[pick] = rng.choice(specials, size=int(pick.sum()))
    return xs


# sha256 of the stacked (w, alpha, beta, kink) on _special_block() at gamma
# 0.5, as computed column by column
SPECIAL_PARTS = {
    1.0: "2bfdb58f44ef6272b7d1a93c2e5aada7e318986db3caec77836c20a59715cd86",
    1.5: "1161b7220a91d44a19340e09103cf82a6914a6e22586ff6d2b19467378e87d69",
    2.0: "68e1de46e11b4d5c65f1c8542307ac4fa1c0ff717506d14d7c5474df454c0f57",
    3.0: "dd9f9df0545258aca7014bd9dddc0ca780978298ac2c805c24290c187c0e25a1",
}


@pytest.mark.parametrize("p", sorted(SPECIAL_PARTS))
def test_certificate_terms_on_special_values_are_pinned(p):
    xs = _special_block()
    with np.errstate(all="ignore"):
        parts = bk.brockett_decrease_parts(p, 0.5, xs)
        assert _digest(np.stack(parts)) == SPECIAL_PARTS[p]
        for r in range(0, len(xs), 7):
            single = bk.brockett_decrease_parts(p, 0.5, xs[r])
            assert _bits(single[:3]) == _bits([a[r] for a in parts[:3]])
            assert single[3] is bool(parts[3][r])
