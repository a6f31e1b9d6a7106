import json
import math

import numpy as np
import pytest

from oscstab import brockett as bk
from oscstab.controller import user_law
from oscstab.integrator import (chen_fliess_predict, increment_diagnostics,
                                integrate_classical, integrate_sampled,
                                iterated_integral_coefficient,
                                oscillator_coupling, prediction_order_probe,
                                write_trajectory_csv, write_windows_json)

from conftest import X0_LEFT, const_fields_system, needs_cc


def _linear_law(gamma=0.0, scale=1.0, eps=0.1):
    sys_ = const_fields_system()
    return sys_, user_law(sys_, gamma, eps,
                          v0=lambda x: -scale * np.asarray(x[:2], dtype=float),
                          profiles=lambda x: np.zeros(1),
                          profiles_jac=lambda x: (np.zeros(1), np.zeros((1, 3))))


# --- step plan validation ------------------------------------------------------

def test_substep_resolution_enforced(bsys, lyap_p1, law_p1):
    with pytest.raises(ValueError, match="substeps"):
        integrate_classical(bsys, law_p1, np.zeros(10), T=1.0, substeps=200)
    with pytest.raises(ValueError, match="horizon"):
        integrate_classical(bsys, law_p1, np.zeros(10), T=0.01, substeps=400)
    with pytest.raises(ValueError, match="shape"):
        integrate_classical(bsys, law_p1, np.zeros(9), T=1.0, substeps=400)


def test_equilibrium_stays_fixed(bsys, lyap_p1, law_p1):
    for integrate in (integrate_classical, integrate_sampled):
        traj = integrate(bsys, law_p1, np.zeros(10), T=0.5, substeps=400,
                         lyap=lyap_p1)
        assert np.max(np.abs(traj.states)) <= 1e-14
        assert np.max(np.abs(traj.windows.r_hat)) == 0.0
        assert not traj.diverged


def test_window_boundaries_sampled_exactly(bsys, lyap_p1, law_p1):
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=0.7, substeps=400,
                               lyap=lyap_p1)
    assert traj.t[0] == 0.0
    for j in range(traj.n_windows + 1):
        assert traj.t[j * traj.substeps] == j * traj.eps  # exact, no tolerance
    assert np.all(np.diff(traj.t) > 0)
    assert traj.n_windows == 7


@needs_cc
def test_generic_and_fast_paths_agree(bsys, lyap_p1, lyap_p15):
    for p, lyap in ((1.0, lyap_p1), (1.5, lyap_p15)):
        law = bk.brockett_law(p, 0.5, 0.1)
        x0 = X0_LEFT
        for integrate in (integrate_classical, integrate_sampled):
            fast = integrate(bsys, law, x0, T=1.0, substeps=400, lyap=lyap)
            slow = integrate(bsys, law, x0, T=1.0, substeps=400, lyap=lyap,
                             use_fast=False)
            assert fast.solver_path == "compiled"
            assert slow.solver_path == "generic (use_fast=False)"
            assert np.max(np.abs(fast.states - slow.states)) <= 1e-9


def test_sampled_mode_piecewise_constant_feedback_is_exact():
    sys_, law = _linear_law(gamma=0.0, eps=0.1)
    x0 = np.array([1.0, -2.0, 0.0])
    traj = integrate_sampled(sys_, law, x0, T=1.0, substeps=100)
    # frozen feedback integrates a constant field: x_{j+1} = x_j (1 - eps)
    for j in range(10):
        expect = x0[:2] * (1 - 0.1) ** j
        got = traj.states[j * 100, :2]
        assert np.max(np.abs(got - expect)) <= 1e-13
    # classical solution of the same loop decays exponentially instead
    tc = integrate_classical(sys_, law, x0, T=1.0, substeps=100)
    expect = x0[:2] * math.exp(-1.0)
    assert np.max(np.abs(tc.states[-1, :2] - expect)) <= 1e-10


def test_prediction_examples(bsys, lyap_p1, law_p1):
    e5 = np.eye(10)[4]
    pred = chen_fliess_predict(bsys, law_p1, e5)
    expect = (1 - 0.25 * 0.1) * e5
    assert np.allclose(pred.predicted, expect, atol=1e-15)
    assert np.allclose(pred.drift_term, 0.0, atol=1e-15)

    pred0 = chen_fliess_predict(bsys, law_p1, np.zeros(10))
    assert np.allclose(pred0.predicted, 0.0, atol=1e-15)

    import dataclasses

    law0 = dataclasses.replace(law_p1, gamma=0.0)
    x0 = X0_LEFT
    predg0 = chen_fliess_predict(bsys, law0, x0)
    g0 = np.concatenate([-x0[:4], np.zeros(6)])
    assert np.allclose(predg0.predicted, x0 + 0.1 * g0, atol=1e-14)


def test_prediction_invariant_combines_terms(bsys, law_p1):
    rng = np.random.default_rng(41)
    for _ in range(10):
        x0 = rng.uniform(-2, 2, 10)
        pred = chen_fliess_predict(bsys, law_p1, x0)
        combined = x0 + pred.eps * (pred.drift_term
                                    + law_p1.gamma ** 2 * pred.bracket_term)
        assert np.array_equal(pred.predicted, combined)


def test_evaluation_failure_carries_pair_information():
    sys_ = const_fields_system()
    law = user_law(sys_, 0.5, 0.1,
                   v0=lambda x: np.zeros(2),
                   profiles=lambda x: np.full(1, float("nan")),
                   profiles_jac=lambda x: (np.full(1, float("nan")),
                                           np.zeros((1, 3))))
    from oscstab.controller import feedback_eval

    with pytest.raises(ArithmeticError, match="pair"):
        feedback_eval(law, np.ones(3), 0.0)
    with pytest.raises(ArithmeticError, match="not finite"):
        chen_fliess_predict(sys_, law, np.ones(3))


def test_order_probe_input_validation(bsys, law_p1):
    x0 = np.eye(10)[4]
    with pytest.raises(ValueError, match="decreasing"):
        prediction_order_probe(bsys, law_p1, x0, [0.1, 0.1, 0.05])
    with pytest.raises(ValueError, match="at least 3"):
        prediction_order_probe(bsys, law_p1, x0, [0.1, 0.05])


def test_order_probe_excludes_noise_level_residuals(bsys, law_p1):
    # at the equilibrium both solution and prediction vanish identically
    with pytest.raises(ArithmeticError, match="too few usable"):
        prediction_order_probe(bsys, law_p1, np.zeros(10), [0.1, 0.05, 0.025])


def test_order_probe_unforced_flow_matches_closed_form(bsys, law_p1):
    import dataclasses

    law0 = dataclasses.replace(law_p1, gamma=0.0)
    x0 = np.zeros(10)
    x0[4] = 1.0
    x0[0] = 0.5
    eps_list = (0.1, 0.05, 0.025)
    probe = prediction_order_probe(bsys, law0, x0, eps_list)
    # actuated block decays exactly exponentially and the tail is constant,
    # so the residual is |e^-eps - 1 + eps| * ||x0 head||
    for e, rho in zip(probe.eps_values, probe.residuals):
        expect = abs(math.exp(-e) - 1.0 + e) * 0.5
        assert math.isclose(rho, expect, rel_tol=1e-9)
    # fitted slope approaches 2 from below on this ladder
    assert probe.exponent >= 1.9


def test_increment_diagnostics_consistency(bsys, lyap_p1, law_p1):
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=2.0, substeps=400,
                               lyap=lyap_p1)
    filled = traj.windows.r_hat.copy()
    series, worst = increment_diagnostics(traj, lyap_p1)
    assert np.array_equal(series, filled)
    assert worst == np.max(np.abs(series))
    # window decrease on the case-study run
    vb = traj.v[::traj.substeps]
    assert np.all(np.diff(vb) < 0)


def test_increment_diagnostics_unforced_remainder_scales_like_sqrt_eps(bsys, lyap_p1, law_p1):
    # without oscillation the per-window remainder is the Taylor tail of V
    # along the smooth averaged flow, which shrinks like sqrt(eps)
    import dataclasses

    from oscstab.controller import law_with_period

    law0 = dataclasses.replace(law_p1, gamma=0.0)
    x0 = np.array([1, -1, 1.5, -0.5, 0.3, -0.2, 0.5, 0.1, -0.4, 0.2], dtype=float)
    eps_list = (0.1, 0.05, 0.025, 0.0125)
    worst = []
    for e in eps_list:
        traj = integrate_classical(bsys, law_with_period(law0, e), x0, T=1.0,
                                   substeps=400, lyap=lyap_p1)
        worst.append(increment_diagnostics(traj, lyap_p1)[1])
    c = worst[0] / math.sqrt(eps_list[0])
    for e, w in zip(eps_list, worst):
        assert w <= 1.1 * c * math.sqrt(e)
    slope = np.polyfit(np.log(eps_list), np.log(worst), 1)[0]
    assert slope >= 0.4


def test_increment_diagnostics_long_run_remainder_bounded(paper_run, lyap_p1):
    traj = paper_run(1.0, "classical", 400)
    series, worst = increment_diagnostics(traj, lyap_p1)
    assert np.all(np.isfinite(series))
    assert 0.0 < worst < 10.0


def test_increment_diagnostics_requires_windows(bsys, lyap_p1, law_p1):
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=1.0, substeps=400)
    with pytest.raises(ValueError, match="window records"):
        increment_diagnostics(traj, lyap_p1)


def test_divergence_flag_truncates():
    sys_, _ = _linear_law()
    blow = user_law(sys_, 0.0, 0.1,
                    v0=lambda x: 1e3 * np.asarray(x[:2], dtype=float),
                    profiles=lambda x: np.zeros(1),
                    profiles_jac=lambda x: (np.zeros(1), np.zeros((1, 3))))
    traj = integrate_classical(sys_, blow, np.array([1.0, 1.0, 0.0]), T=1.0,
                               substeps=100)
    assert traj.diverged
    assert traj.t.shape[0] < 1001
    assert np.all(np.isfinite(traj.norms[:-1]))


@needs_cc
def test_divergence_flag_fast_path(bsys, lyap_p1, law_p1):
    big = 4e6 * np.ones(10) / math.sqrt(10.0)
    traj = integrate_classical(bsys, law_p1, big, T=1.0, substeps=400,
                               lyap=lyap_p1)
    assert traj.solver_path == "compiled"
    assert traj.diverged
    assert traj.t.shape[0] <= 401


# --- oscillator iterated integrals ----------------------------------------------

def test_same_pair_coupling_is_minus_two_periods():
    for eps in (0.1, 0.05):
        for kappa in (1, 2, 6):
            val = oscillator_coupling(kappa, kappa, eps, 20_000)
            assert abs(val + 2.0 * eps) <= 1e-6 * 2.0 * eps


def test_distinct_multipliers_decouple():
    eps = 0.1
    for ka, kb in ((1, 2), (2, 5), (3, 4), (1, 6)):
        val = oscillator_coupling(ka, kb, eps, 20_000)
        scale = (2 * math.sqrt(ka * math.pi / eps)) \
            * (2 * math.sqrt(kb * math.pi / eps)) * eps * eps
        assert abs(val) <= 1e-8 * scale


def test_resonant_multipliers_couple():
    # equal multipliers on different pairs: the witness the assignment
    # invariant exists to prevent
    eps = 0.1
    val = oscillator_coupling(3, 3, eps, 20_000)
    assert abs(val) > 0.5 * eps


def test_assignment_level_coupling_and_step_floor(bsys, law_p1):
    a = law_p1.assignment
    v = iterated_integral_coefficient(a, (1, 2), (1, 2), 20_000)
    assert abs(v + 2.0 * a.eps) <= 1e-6 * 2.0 * a.eps
    v2 = iterated_integral_coefficient(a, (1, 2), (3, 4), 20_000)
    assert abs(v2) <= 1e-6
    with pytest.raises(ValueError, match="10000"):
        oscillator_coupling(1, 2, 0.1, 5_000)


# --- artifact writers -------------------------------------------------------------

def test_csv_and_json_writers(tmp_path, bsys, lyap_p1, law_p1):
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=0.5, substeps=400,
                               lyap=lyap_p1)
    csv = tmp_path / "traj.csv"
    write_trajectory_csv(traj, csv)
    lines = csv.read_text().split("\n")
    assert lines[0] == "t," + ",".join(f"x{i}" for i in range(1, 11)) + ",V,norm"
    assert len(lines) == traj.t.shape[0] + 2  # header + rows + trailing LF
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert np.allclose([float(v) for v in first[1:11]], X0_LEFT)
    # full precision round trip
    row = lines[137].split(",")
    assert float(row[12]) == traj.norms[136]

    js = tmp_path / "win.json"
    write_windows_json(traj, js)
    records = json.loads(js.read_text())
    assert len(records) == traj.n_windows
    assert set(records[0]) == {"j", "t", "V", "W", "r_hat"}

    bare = integrate_classical(bsys, law_p1, X0_LEFT, T=0.5, substeps=400)
    with pytest.raises(ValueError, match="V channel"):
        write_trajectory_csv(bare, tmp_path / "nope.csv")
