import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscstab.controller import (OscillatorAssignment, SynthesisError,
                                assign_frequencies, feedback_eval,
                                law_with_period, oscillator, split_component,
                                synthesize_components, synthesized_law,
                                user_law)
from scipy.integrate import simpson

from conftest import heis3_system, merging_fields_system


# --- frequency assignment -----------------------------------------------------

def test_default_assignment_is_one_to_count(bsys):
    assert assign_frequencies(bsys.pairs) == (1, 2, 3, 4, 5, 6)
    assert assign_frequencies(((1, 2),)) == (1,)


def test_assignment_override_rules(bsys):
    assert assign_frequencies(bsys.pairs, (2, 1, 3, 4, 5, 6)) == (2, 1, 3, 4, 5, 6)
    with pytest.raises(ValueError, match="duplicate"):
        assign_frequencies(bsys.pairs, (1, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match=">= 1"):
        assign_frequencies(bsys.pairs, (0, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="one frequency"):
        assign_frequencies(bsys.pairs, (1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        assign_frequencies(())


def test_assignment_type_validates_on_any_construction(bsys):
    with pytest.raises(ValueError, match="duplicate"):
        OscillatorAssignment(bsys.pairs, (1, 1, 2, 3, 4, 5), 0.1)
    with pytest.raises(ValueError, match="period"):
        OscillatorAssignment(bsys.pairs, (1, 2, 3, 4, 5, 6), 0.0)


# --- oscillators ---------------------------------------------------------------

def test_oscillator_values():
    a = OscillatorAssignment(((1, 2), (1, 3)), (1, 2), 0.1)
    first = oscillator(a, (1, 2), "first", 0.0)
    assert math.isclose(first, 2.0 * math.sqrt(10 * math.pi), rel_tol=1e-12)
    assert math.isclose(first, 11.209982432795858, rel_tol=1e-9)
    assert oscillator(a, (1, 2), "second", 0.0) == 0.0
    # kappa * omega * t = 2 * (2 pi / 0.1) * 0.05 = 2 pi
    v = oscillator(a, (1, 3), "first", 0.05)
    assert math.isclose(v, 2.0 * math.sqrt(20 * math.pi), rel_tol=1e-12)
    with pytest.raises(ValueError, match="role"):
        oscillator(a, (1, 2), "third", 0.0)
    with pytest.raises(KeyError):
        oscillator(a, (2, 3), "first", 0.0)


def test_oscillator_periodicity_zero_mean_and_energy():
    eps = 0.1
    a = OscillatorAssignment(((1, 2), (1, 3), (2, 3)), (1, 2, 5), eps)
    s = np.linspace(0.0, eps, 4001)
    for pair in a.pairs:
        q = a.index_of(pair)
        amp = a.amplitude(q)
        for role in ("first", "second"):
            f = np.array([oscillator(a, pair, role, t) for t in s])
            # mean over a full period vanishes
            assert abs(simpson(f, x=s)) <= 1e-10 * amp
            # averaged square energy is amp^2 / 2
            assert math.isclose(simpson(f * f, x=s) / eps, amp * amp / 2.0,
                                rel_tol=1e-8)
        t = 0.0137
        assert math.isclose(oscillator(a, pair, "first", t),
                            oscillator(a, pair, "first", t + eps),
                            rel_tol=0, abs_tol=1e-10 * amp)


# --- split ----------------------------------------------------------------------

def test_split_examples():
    vi, vj = split_component(-0.5)
    assert math.isclose(vi, math.sqrt(0.5), rel_tol=1e-15)
    assert math.isclose(vj, -math.sqrt(0.5), rel_tol=1e-15)
    assert split_component(0.0) == (0.0, 0.0)
    assert split_component(4.0) == (2.0, 2.0)


@given(vt=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300)
def test_split_identities(vt):
    vi, vj = split_component(vt)
    assert abs(vi * vi - abs(vt)) <= 2 * math.ulp(abs(vt))
    assert abs(vi * vj - vt) <= 2 * math.ulp(abs(vt))


def test_split_identity_bulk():
    rng = np.random.default_rng(8)
    vts = rng.uniform(-50, 50, 10_000)
    vi = np.sqrt(np.abs(vts))
    vj = np.copysign(vi, vts)
    pairs = [split_component(v) for v in vts]
    assert np.array_equal([p[0] for p in pairs], vi)
    assert np.array_equal([p[1] for p in pairs], vj)
    prod = np.array([p[0] * p[1] for p in pairs])
    ulps = 2 * np.array([math.ulp(abs(v)) for v in vts])
    assert np.all(np.abs(prod - vts) <= ulps)
    assert np.all(np.abs(vi * vi - np.abs(vts)) <= ulps)


# --- synthesis -------------------------------------------------------------------

def test_synthesis_at_origin_is_zero(bsys, lyap_p1):
    v0, vt = synthesize_components(bsys, lyap_p1, np.zeros(10))
    assert np.allclose(v0, 0.0, atol=1e-15)
    assert np.allclose(vt, 0.0, atol=1e-15)


def test_synthesis_closed_form_agreement(bsys, lyap_p1):
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.uniform(-2, 2, 10)
        v0, vt = synthesize_components(bsys, lyap_p1, x)
        assert np.max(np.abs(v0 + x[:4])) <= 1e-10
        assert np.max(np.abs(vt + 0.5 * x[4:])) <= 1e-10


def test_synthesis_residual_bound(bsys, lyap_p1):
    from oscstab.vecfield import assemble_bracket_matrix

    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.uniform(-2, 2, 10)
        v0, vt = synthesize_components(bsys, lyap_p1, x)
        sol = np.concatenate([v0, vt])
        g = lyap_p1.grad(x)
        res = np.linalg.norm(assemble_bracket_matrix(bsys, x).matrix @ sol + g)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(g))


def test_synthesis_at_e5(bsys, lyap_p1):
    x = np.zeros(10)
    x[4] = 1.0
    v0, vt = synthesize_components(bsys, lyap_p1, x)
    assert np.allclose(v0, 0.0, atol=1e-14)
    assert math.isclose(vt[0], -0.5, rel_tol=1e-14)
    assert np.allclose(vt[1:], 0.0, atol=1e-14)


def test_synthesis_rejects_singular_matrix():
    sys_ = merging_fields_system()

    class Quad:
        n = 3
        grad = staticmethod(lambda x: np.asarray(x, dtype=float))

    with pytest.raises(SynthesisError) as err:
        synthesize_components(sys_, Quad, np.array([1.0, 0.0, 0.0]))
    assert err.value.condition == np.inf


# --- feedback evaluation ----------------------------------------------------------

def test_feedback_zero_at_origin(bsys, lyap_p1, law_p1):
    slaw = synthesized_law(bsys, lyap_p1, 0.5, 0.1)
    for law in (law_p1, slaw):
        for t in (0.0, 0.03, 1.7):
            assert np.allclose(feedback_eval(law, np.zeros(10), t), 0.0,
                               atol=1e-14)


def test_feedback_example_at_e5(law_p1):
    x = np.zeros(10)
    x[4] = 1.0
    u = feedback_eval(law_p1, x, 0.0)
    assert math.isclose(u[0], 0.5 * math.sqrt(0.5) * 2 * math.sqrt(10 * math.pi),
                        rel_tol=1e-12)
    assert u[1] == 0.0 and u[2] == 0.0 and u[3] == 0.0


def test_feedback_gamma_zero_reduces_to_v0(bsys, law_p1):
    import dataclasses

    law0 = dataclasses.replace(law_p1, gamma=0.0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-2, 2, 10)
        t = rng.uniform(0, 1)
        assert np.array_equal(feedback_eval(law0, x, t), -x[:4])


def test_feedback_period_and_law_rebuild(law_p1):
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, 10)
    for t in (0.0, 0.0123, 0.07):
        u1 = feedback_eval(law_p1, x, t)
        u2 = feedback_eval(law_p1, x, t + law_p1.eps)
        assert np.max(np.abs(u1 - u2)) <= 1e-12 * max(1.0, np.max(np.abs(u1)))
    law2 = law_with_period(law_p1, 0.05)
    assert law2.eps == 0.05
    assert law2.assignment.kappas == law_p1.assignment.kappas
    assert law2.gamma == law_p1.gamma


def test_split_identity_holds_along_law(law_p1, law_p15):
    rng = np.random.default_rng(13)
    for law, p in ((law_p1, 1.0), (law_p15, 1.5)):
        for _ in range(20):
            x = rng.uniform(-2, 2, 10)
            vts = law.profiles(x)
            for q, vt in enumerate(vts):
                vi, vj = split_component(vt)
                assert abs(vi * vj - vt) <= 2 * math.ulp(abs(vt))
                assert abs(vi * vi - abs(vt)) <= 2 * math.ulp(abs(vt))


def test_user_law_requires_matching_profile_count():
    sys_ = heis3_system()
    with pytest.raises(ValueError, match="one profile"):
        user_law(sys_, 0.5, 0.1, v0=lambda x: np.zeros(2),
                 profiles=lambda x: np.zeros(0))


def test_synthesized_law_components_match_pointwise(bsys, lyap_p1):
    slaw = synthesized_law(bsys, lyap_p1, 0.5, 0.1)
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, 10)
    assert np.allclose(slaw.profiles(x), -0.5 * x[4:], atol=1e-12)
    assert math.isclose(slaw.profiles(x)[2], -0.5 * x[6], rel_tol=1e-12)
    vals, jac = slaw.profiles_jac(x)
    expected = np.zeros((6, 10))
    expected[:, 4:] = -0.5 * np.eye(6)
    assert np.allclose(jac, expected, atol=1e-12)
