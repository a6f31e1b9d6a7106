import dataclasses
import functools
import json
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from oscstab import brockett as bk, integrator
from oscstab.cli import RunConfig
from oscstab.controller import (OscillatorAssignment, SynthesisError,
                                feedback_eval, law_with_period,
                                synthesized_law, user_law)
from oscstab.integrator import (chen_fliess_predict, coupling_matrix,
                                integrate_classical, integrate_sampled,
                                prediction_order_probe, write_trajectory_csv,
                                write_windows_json)
from oscstab.lyapunov import (LyapunovSpec, correction_field,
                              correction_ratio_sup, decrease_rate)
from oscstab.sampling import Region
from oscstab.vecfield import input_matrix, system_from_fields

from conftest import (GENERIC_PATH, X0_LEFT, X0_RIGHT, const_fields_system,
                      generic, heis3_system, needs_cc, per_point,
                      random_polynomial_system)


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


@pytest.mark.parametrize("path", ["compiled", "generic"])
@pytest.mark.parametrize("substeps", [400.0, np.float64(400.0), True, "400"],
                         ids=["float", "numpy-float", "bool", "str"])
def test_non_integer_substeps_are_refused_before_any_step(
        bsys, law_p1, monkeypatch, path, substeps):
    def stepped(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(integrator._fastpath, "brockett_trajectory", stepped)
    monkeypatch.setattr(integrator, "_generic_steps", stepped)
    law = law_p1 if path == "compiled" else generic(law_p1)
    for integrate in (integrate_classical, integrate_sampled):
        with pytest.raises(ValueError, match=re.escape(
                f"substeps must be an integer, got {substeps!r}")):
            integrate(bsys, law, X0_LEFT, T=0.1, substeps=substeps)


def test_numpy_integer_substeps_step_as_python_ones(bsys, law_p1):
    for law in (law_p1, generic(law_p1)):
        want = integrate_classical(bsys, law, X0_LEFT, T=0.1, substeps=400)
        got = integrate_classical(bsys, law, X0_LEFT, T=0.1,
                                  substeps=np.int64(400))
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.t, want.t)


NONFINITE_X0_CASES = {
    "closed-form-compiled": lambda law: law,
    "closed-form-generic": generic,
    "synthesized": lambda law: bk.brockett_law(1.0, 0.5, 0.1,
                                               mode="synthesized"),
}


@pytest.mark.parametrize("mode", ["classical", "sampled"])
@pytest.mark.parametrize("case", sorted(NONFINITE_X0_CASES))
def test_nonfinite_x0_is_refused_alike_on_every_path(bsys, law_p1, case, mode):
    # one refusal naming x0, before the kernel, the generic stepper or a
    # synthesis solve sees the state
    law = NONFINITE_X0_CASES[case](law_p1)
    integrate = integrate_classical if mode == "classical" else integrate_sampled
    for bad in (math.nan, math.inf):
        x0 = X0_LEFT.copy()
        x0[3] = bad
        with pytest.raises(ValueError, match=r"^x0 has non-finite entries: "):
            integrate(bsys, law, x0, T=0.2, substeps=400)


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
            slow = integrate(bsys, generic(law), x0, T=1.0, substeps=400,
                             lyap=lyap)
            assert fast.solver_path == "compiled"
            assert slow.solver_path == GENERIC_PATH
            assert np.max(np.abs(fast.states - slow.states)) <= 1e-9


# (p, x0, kappas, substeps) of the long agreement runs; the kernel forms each
# oscillator from one sin and cos of the base phase by complex powers, so its
# states match the generic ones to rounding, not bit for bit
AGREEMENT_CASES = {
    "p1": (1.0, X0_LEFT, None, 400),
    "p1.5": (1.5, X0_RIGHT, None, 400),
    "kappas-1-2-3-5-8-13": (1.0, X0_LEFT, (1, 2, 3, 5, 8, 13), 800),
}


@needs_cc
@pytest.mark.parametrize("case, mode", [
    ("p1", "classical"), ("p1", "sampled"), ("p1.5", "classical"),
    ("p1.5", "sampled"), ("kappas-1-2-3-5-8-13", "classical")])
def test_compiled_kernel_agrees_with_generic_to_rounding(bsys, case, mode):
    p, x0, kappas, substeps = AGREEMENT_CASES[case]
    law = bk.brockett_law(p, 0.5, 0.1, kappas=kappas)
    assert law.assignment.kappas == (kappas or (1, 2, 3, 4, 5, 6))
    integrate = integrate_classical if mode == "classical" else integrate_sampled
    fast = integrate(bsys, law, x0, T=5.0, substeps=substeps)
    slow = integrate(bsys, generic(law), x0, T=5.0, substeps=substeps)
    assert fast.solver_path == "compiled"
    assert slow.solver_path == GENERIC_PATH
    assert fast.states.shape == slow.states.shape == (50 * substeps + 1, 10)
    assert np.max(np.abs(fast.states - slow.states)) <= 1e-12


def _per_stage_sampled(sys_, law, x0, T, substeps):
    """Sampled RK4 written out stage by stage: the control at the frozen
    window-start state is evaluated afresh at every stage time."""
    h = law.eps / substeps
    x = np.array(x0, dtype=float)
    xs = [x]
    for step in range(int(round(T / law.eps)) * substeps):
        if step % substeps == 0:
            frozen = x.copy()
        t = step * h
        u = lambda tt: feedback_eval(law, frozen, tt)
        k1 = input_matrix(sys_, x) @ u(t)
        k2 = input_matrix(sys_, x + 0.5 * h * k1) @ u(t + 0.5 * h)
        k3 = input_matrix(sys_, x + 0.5 * h * k2) @ u(t + 0.5 * h)
        k4 = input_matrix(sys_, x + h * k3) @ u(t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x)
    return np.array(xs)


def _synthesized_case(sys_, x0):
    lyap = LyapunovSpec(sys_.n, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.array(x, copy=True))
    return sys_, synthesized_law(sys_, lyap, 0.5, 0.1), np.array(x0), 100


HELD_CASES = {
    "brockett10-p1": lambda: (bk.brockett_system(), bk.brockett_law(1.0, 0.5, 0.1),
                              X0_LEFT, 400),
    "brockett10-p1.5": lambda: (bk.brockett_system(),
                                bk.brockett_law(1.5, 0.5, 0.1), X0_RIGHT, 400),
    "heis3-synthesized": lambda: _synthesized_case(
        system_from_fields(3, 2, heis3_system().fields, ((1, 2),),
                           name="heis3"), [0.4, -0.3, 0.5]),
    "poly3-synthesized": lambda: _synthesized_case(
        random_polynomial_system(), [0.3, -0.2, 0.25]),
}


@pytest.mark.parametrize("case", sorted(HELD_CASES))
def test_held_window_controls_match_per_stage_evaluation(case):
    sys_, law, x0, substeps = HELD_CASES[case]()
    held = integrate_sampled(sys_, generic(law), x0, T=0.2, substeps=substeps)
    assert held.solver_path == GENERIC_PATH
    ref = _per_stage_sampled(sys_, law, x0, 0.2, substeps)
    assert held.states.shape == ref.shape and not held.diverged
    assert np.max(np.abs(held.states - ref)) <= 1e-13 * np.max(np.abs(ref))


def _counting_components(law):
    calls = []

    def components(x):
        calls.append(1)
        return law.components(x)
    return dataclasses.replace(law, components=per_point(components)), calls


def test_sampled_integration_calls_components_once_per_window(law_p1):
    for sys_, law in (_linear_law(gamma=0.5), (bk.brockett_system(), law_p1)):
        substeps = 50 * max(law.assignment.kappas)
        counted, calls = _counting_components(law)
        traj = integrate_sampled(sys_, counted, np.ones(sys_.n), T=0.3,
                                 substeps=substeps)
        assert traj.t.shape[0] == 3 * substeps + 1
        assert len(calls) == 3
        calls.clear()
        integrate_classical(sys_, counted, np.ones(sys_.n), T=0.3,
                            substeps=substeps)
        assert len(calls) == 4 * 3 * substeps


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
    for t in (0.0, np.array([0.0, 0.05])):
        with pytest.raises(ArithmeticError, match=r"pair \(1, 2\)"):
            feedback_eval(law, np.ones(3), t)
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


def test_order_probe_uses_residuals_above_the_noise_floor(bsys, law_p1,
                                                          monkeypatch):
    # residuals 1e-10 (eps / 0.1)^1.5, between the 1e-13 noise floor and
    # 1e-9, are fitted; only the last, set to 1e-14, is excluded
    x0 = np.eye(10)[4]
    eps_list = (0.1, 0.05, 0.025, 0.0125)

    def one_window(sys_, law, x, T, substeps):
        rho = 1e-14 if T == eps_list[-1] else 1e-10 * (T / 0.1) ** 1.5
        end = chen_fliess_predict(sys_, law, x).predicted + rho * np.eye(10)[0]
        return integrator.Trajectory(
            t=np.array([0.0, T]), states=np.array([x, end]),
            eps=T, substeps=substeps, mode="classical")

    monkeypatch.setattr(integrator, "integrate_classical", one_window)
    probe = prediction_order_probe(bsys, law_p1, x0, eps_list)
    assert probe.eps_values == eps_list[:-1]
    assert probe.excluded == eps_list[-1:]
    assert np.allclose(probe.residuals, [1e-10, 1e-10 * 0.5 ** 1.5,
                                         1e-10 * 0.25 ** 1.5], rtol=1e-3)
    assert math.isclose(probe.exponent, 1.5, rel_tol=1e-3)


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


def test_order_probe_doubles_until_the_change_is_small(bsys, probe_runs):
    # fast multipliers at a spread state: the first pair, 650 and 1300
    # steps, leaves a change far above 1e-9 of the residual
    law = bk.brockett_law(1.0, 0.5, 0.1, kappas=(2, 3, 5, 7, 11, 13))
    x0 = 0.3 * np.linspace(-1.0, 1.0, 10)
    probe = prediction_order_probe(bsys, law, x0, (0.1, 0.05, 0.025))
    assert all(probe.resolved) and not probe.excluded
    assert min(probe.substeps) > 1300
    for e, n, est in zip((0.1, 0.05, 0.025), probe.substeps, probe.estimates):
        # N/2 doubled up to N, the finer end state reused each time
        ran = [(s, end) for t, s, end in probe_runs if t == e]
        assert [s for s, _ in ran] == [650 * 2 ** i for i in range(len(ran))]
        assert ran[-1][0] == n
        ref = integrate_classical(bsys, law_with_period(law, e), x0, T=e,
                                  substeps=51_200).states[-1]
        assert 0.0 < np.linalg.norm(ran[-1][1] - ref) <= est
        assert est == np.linalg.norm(ran[-1][1] - ran[-2][1])


def test_order_probe_stops_a_period_below_the_noise_floor(bsys, law_p1,
                                                          monkeypatch):
    # the last residual, 1e-14, is below the noise floor, and so is its
    # change, 1e-16, far above 1e-9 of it: the first pair stops it
    x0 = np.eye(10)[4]
    eps_list = (0.1, 0.05, 0.025, 0.0125)
    seen = []

    def one_window(sys_, law, x, T, substeps):
        seen.append(substeps)
        rho = 1e-14 if T == eps_list[-1] else 1e-10 * (T / 0.1) ** 1.5
        wobble = 2e-16 * 400 / substeps if T == eps_list[-1] else 0.0
        end = (chen_fliess_predict(sys_, law, x).predicted
               + rho * np.eye(10)[0] + wobble * np.eye(10)[1])
        return integrator.Trajectory(
            t=np.array([0.0, T]), states=np.array([x, end]),
            eps=T, substeps=substeps, mode="classical")

    monkeypatch.setattr(integrator, "integrate_classical", one_window)
    probe = prediction_order_probe(bsys, law_p1, x0, eps_list)
    assert seen == [400, 800] * 4
    assert probe.excluded == eps_list[-1:]
    assert probe.substeps == (800,) * 4 and all(probe.resolved)
    assert probe.estimates == (0.0, 0.0, 0.0, 2e-16 * 0.5)


@pytest.mark.parametrize("failure, kind", [
    ("diverged", ArithmeticError),
    (SynthesisError("bracket matrix ill-conditioned", 1e13), SynthesisError),
    (FloatingPointError("profile not finite"), FloatingPointError),
], ids=["diverged", "synthesis", "arithmetic"])
def test_order_probe_failure_names_the_period_and_step_count(
        bsys, law_p1, monkeypatch, failure, kind):
    def one_window(sys_, law, x, T, substeps):
        if T < 0.1 and substeps == 800:
            if failure == "diverged":
                return integrator.Trajectory(
                    t=np.array([0.0]), states=np.array([x]), eps=T,
                    substeps=substeps, mode="classical", diverged=True)
            raise failure
        end = chen_fliess_predict(sys_, law, x).predicted + 1e-6
        return integrator.Trajectory(
            t=np.array([0.0, T]), states=np.array([x, end]),
            eps=T, substeps=substeps, mode="classical")

    monkeypatch.setattr(integrator, "integrate_classical", one_window)
    with pytest.raises(kind, match=r"in the order probe at eps=0\.05, N=800$"):
        prediction_order_probe(bsys, law_p1, np.eye(10)[4], (0.1, 0.05, 0.025))


def test_increment_diagnostics_consistency(bsys, lyap_p1, law_p1):
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=2.0, substeps=400,
                               lyap=lyap_p1)
    # r_hat_j = ((V_{j+1} - V_j) / eps - w_j) / sqrt(eps) from the V channel
    vb = traj.v[::traj.substeps]
    expect = (((vb[1:] - vb[:-1]) / traj.eps - traj.windows.w)
              / math.sqrt(traj.eps))
    assert np.array_equal(traj.windows.r_hat, expect)
    # window decrease on the case-study run
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
        worst.append(np.max(np.abs(traj.windows.r_hat)))
    c = worst[0] / math.sqrt(eps_list[0])
    for e, w in zip(eps_list, worst):
        assert w <= 1.1 * c * math.sqrt(e)
    slope = np.polyfit(np.log(eps_list), np.log(worst), 1)[0]
    assert slope >= 0.4


def test_increment_diagnostics_long_run_remainder_bounded(paper_run, lyap_p1):
    traj = paper_run(1.0, "classical", 400)
    series = traj.windows.r_hat
    assert np.all(np.isfinite(series))
    assert 0.0 < np.max(np.abs(series)) < 10.0


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


def _raising_on_call(fn, k: int):
    """``fn`` that raises a ``SynthesisError`` on its ``k``-th call (from 1)."""
    calls = []

    def wrapped(x):
        calls.append(1)
        if len(calls) == k:
            raise SynthesisError("bracket matrix too ill-conditioned", 1e13)
        return fn(x)
    # one state at a time, so that the block probe makes no counted call
    return per_point(wrapped)


def _assert_located(err, step: int, t: float, window: int) -> None:
    assert (err.step, err.t, err.window) == (step, t, window)
    assert err.condition == 1e13
    assert isinstance(err.__cause__, SynthesisError)
    assert f"at step {step}, t={t!r}, window {window}" in str(err)


def test_synthesis_error_in_a_step_names_step_time_and_window():
    sys_, law = _linear_law(gamma=0.5)
    # sampled: one components call per window, at its start, so call k
    # starts window k - 1 and the located step is that window's first step
    bad = dataclasses.replace(law, components=_raising_on_call(law.components,
                                                               3))
    with pytest.raises(SynthesisError) as info:
        integrate_sampled(sys_, bad, np.ones(3), T=0.3, substeps=50)
    _assert_located(info.value, 2 * 50, 2 * 0.1, 2)


def test_synthesis_error_in_a_classical_step_names_step_time_and_window():
    sys_, law = _linear_law(gamma=0.5)
    # classical: one components call per RK4 stage, so call 4*57 + 3 is in
    # step 57
    bad = dataclasses.replace(law, components=_raising_on_call(law.components,
                                                               4 * 57 + 3))
    with pytest.raises(SynthesisError) as info:
        integrate_classical(sys_, bad, np.ones(3), T=0.2, substeps=50)
    _assert_located(info.value, 57, 57 * (0.1 / 50), 1)


def _raising_at(fn, states):
    """``fn`` that raises a ``SynthesisError`` at each of ``states``."""
    def wrapped(x):
        if any(np.array_equal(x, s) for s in states):
            raise SynthesisError("bracket matrix too ill-conditioned", 1e13)
        return fn(x)
    return per_point(wrapped)


def test_synthesis_error_in_a_window_certificate_names_its_window():
    sys_, law = _linear_law(gamma=0.5)
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: np.asarray(x, dtype=float))
    # the certificates fail at the starts of windows 4 and 2 (the stepper
    # never calls components_jac); the first failing window is named
    starts = integrate_classical(sys_, law, np.ones(3), T=0.5,
                                 substeps=50).states[::50]
    bad = dataclasses.replace(law, components_jac=_raising_at(
        law.components_jac, starts[[4, 2]]))
    with pytest.raises(SynthesisError) as info:
        integrate_classical(sys_, bad, np.ones(3), T=0.5, substeps=50,
                            lyap=lyap)
    _assert_located(info.value, 100, 0.2, 2)


def _heis3_law_finite_above(level: float):
    """heis3 from fields under a law whose profile is inf once x3 < level."""
    hsys = system_from_fields(3, 2, heis3_system().fields, ((1, 2),),
                              name="heis3")

    def profiles(x):
        return np.array([-x[2] if x[2] >= level else np.inf])

    grad = np.array([[0.0, 0.0, -1.0]])
    return hsys, user_law(hsys, 1.0, 0.1,
                          v0=lambda x: -np.asarray(x[:2], dtype=float),
                          profiles=profiles,
                          profiles_jac=lambda x: (profiles(x), grad))


@pytest.mark.parametrize("integrate", [integrate_classical, integrate_sampled])
def test_non_finite_profile_in_a_step_names_step_time_and_window(integrate):
    hsys, law = _heis3_law_finite_above(0.95)
    x0 = [0.1, 0.1, 1.0]
    with pytest.raises(ArithmeticError) as info:
        integrate(hsys, law, x0, T=1.0, substeps=100)
    err = info.value
    assert type(err) is ArithmeticError
    assert type(err.__cause__) is ArithmeticError
    m = re.fullmatch(r"profile for pair \(1, 2\) is not finite at x=(\[.*\]) "
                     r"\(at step (\d+), t=(\S+), window (\d+)\)", str(err))
    assert m, str(err)
    x, step, t, window = json.loads(m[1]), int(m[2]), float(m[3]), int(m[4])
    assert x[2] < 0.95 and step > 0
    assert (t, window) == (step * (0.1 / 100), step // 100)
    # until the failure the run is the one of a law finite everywhere
    ref = integrate(*_heis3_law_finite_above(-math.inf), x0, T=1.0,
                    substeps=100).states
    if integrate is integrate_sampled:
        # components once per window, at its start: the first window whose
        # start state is below the level, located at its first step
        assert step % 100 == 0 and x == ref[step].tolist()
        assert np.all(ref[:step:100, 2] >= 0.95)
    else:
        # every step before the located one, and its own start, is finite
        assert np.all(ref[:step + 1, 2] >= 0.95)


# --- which laws the compiled kernel runs -----------------------------------------

def _scaled_system(sys_, c):
    """``sys_`` with every field and Jacobian scaled by ``c``: the same pair
    order, another model."""
    return dataclasses.replace(
        sys_, fields=tuple(lambda x, f=f: c * f(x) for f in sys_.fields),
        jacobians=tuple(lambda x, j=j: c * j(x) for j in sys_.jacobians),
        name="brockett10-scaled")


def _halved_profiles(x):
    """The p = 1 closed-form components with every pair profile halved."""
    v0, vt = bk._closed_form(1.0)[0](x)
    return v0, 0.5 * vt


def _declined_case(case, law):
    """``(system, law)``: ``law`` with its system or its components replaced
    by ``dataclasses.replace``, which copies every other field."""
    if case == "system":
        sys_ = _scaled_system(law.system, 2.0)
        return sys_, dataclasses.replace(law, system=sys_)
    return law.system, dataclasses.replace(law, components=_halved_profiles)


@pytest.mark.parametrize("mode", ["classical", "sampled"])
@pytest.mark.parametrize("case", ["system", "components"])
def test_kernel_declines_a_law_with_replaced_system_or_components(
        bsys, law_p1, monkeypatch, case, mode):
    # the kernel hard-codes the case-study model: a law that is another
    # model must run on the generic stepper, without the warning reserved
    # for a kernel that cannot be had
    sys_, law = _declined_case(case, law_p1)
    integrate = integrate_classical if mode == "classical" else integrate_sampled
    monkeypatch.setattr(integrator, "_fallback_warned", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sys_, law, X0_LEFT, T=0.1, substeps=400)
    assert traj.solver_path == GENERIC_PATH
    # and it is another model: its states leave the case study's
    base = integrate(bsys, generic(law_p1), X0_LEFT, T=0.1, substeps=400)
    assert np.max(np.abs(traj.states - base.states)) > 1e-2


@pytest.mark.parametrize("integrate", [integrate_classical, integrate_sampled])
def test_use_fast_false_runs_the_generic_law(bsys, law_p1, integrate):
    # the keyword is kept for bench/make_reference.py and adds no path: it
    # runs exactly what generic(law) runs
    kept = integrate(bsys, law_p1, X0_LEFT, T=0.1, substeps=400, use_fast=False)
    ref = integrate(bsys, generic(law_p1), X0_LEFT, T=0.1, substeps=400)
    assert kept.solver_path == ref.solver_path == GENERIC_PATH
    assert np.array_equal(kept.states, ref.states)


# laws the kernel still runs: replacing what it reads from the law (gain,
# period, multipliers) or never calls (components_jac), or components that
# are the closed form at another exponent
KEPT_CASES = {
    "gamma": lambda law: dataclasses.replace(law, gamma=0.3),
    "period": lambda law: law_with_period(law, 0.05),
    "kappas": lambda law: dataclasses.replace(law, assignment=(
        OscillatorAssignment(law.system.pairs, (1, 2, 3, 5, 8, 13), law.eps))),
    "components_jac": lambda law: dataclasses.replace(
        law, components_jac=lambda x: law.components_jac(x)),
    "components-p1.5": lambda law: dataclasses.replace(
        law, components=bk._closed_form(1.5)[0]),
}


@needs_cc
@pytest.mark.parametrize("mode", ["classical", "sampled"])
@pytest.mark.parametrize("case", sorted(KEPT_CASES))
def test_kernel_keeps_the_closed_form_law_under_replace(
        bsys, law_p1, case, mode):
    law = KEPT_CASES[case](law_p1)
    integrate = integrate_classical if mode == "classical" else integrate_sampled
    fast = integrate(bsys, law, X0_LEFT, T=law.eps, substeps=800)
    slow = integrate(bsys, generic(law), X0_LEFT, T=law.eps, substeps=800)
    assert fast.solver_path == "compiled"
    assert slow.solver_path == GENERIC_PATH
    assert np.max(np.abs(fast.states - slow.states)) <= 1e-12


# --- both law modes, end to end --------------------------------------------------

E2E_T = 0.2
E2E_CASES = [(preset, mode) for preset in ("fig1-left", "fig1-right")
             for mode in ("classical", "sampled")]


def _preset_run(preset, mode, law_mode, via=lambda law: law):
    p, x0 = bk.PRESETS[preset]["p"], np.array(bk.PRESETS[preset]["x0"])
    law = via(bk.brockett_law(p, 0.5, 0.1, mode=law_mode))
    integrate = integrate_classical if mode == "classical" else integrate_sampled
    return integrate(law.system, law, x0, T=E2E_T, substeps=400)


@functools.lru_cache(maxsize=None)
def _synthesized_run(preset, mode):
    """The synthesized law, which solves the bracket matrix against
    ``-grad V`` at every evaluation, integrated on the generic stepper."""
    traj = _preset_run(preset, mode, "synthesized")
    assert traj.solver_path == GENERIC_PATH
    assert traj.states.shape == (2 * 400 + 1, 10)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) > 0.1
    return traj


@pytest.mark.parametrize("preset, mode", E2E_CASES)
def test_synthesized_law_drives_the_closed_form_loop(preset, mode):
    # two independent routes to the paper's law, the pointwise synthesis and
    # the hand-derived closed forms, give the same closed loop
    ref = _preset_run(preset, mode, "closed-form", via=generic)
    assert ref.solver_path == GENERIC_PATH
    synth = _synthesized_run(preset, mode)
    assert np.max(np.abs(synth.states - ref.states)) <= 1e-13


@needs_cc
@pytest.mark.parametrize("preset, mode", E2E_CASES)
def test_synthesized_law_matches_the_compiled_kernel(preset, mode):
    ref = _preset_run(preset, mode, "closed-form")
    assert ref.solver_path == "compiled"
    synth = _synthesized_run(preset, mode)
    assert np.max(np.abs(synth.states - ref.states)) <= 1e-13


# --- one system per call --------------------------------------------------------

def test_law_for_another_system_is_refused(bsys, law_p1):
    hsys = heis3_system()
    hlaw = user_law(hsys, 0.5, 0.1,
                    v0=lambda x: -np.asarray(x[:2], dtype=float),
                    profiles=lambda x: np.array([-0.5 * x[2]]))
    lyap3 = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: np.asarray(x, dtype=float))
    x3 = np.array([0.3, -0.2, 0.5])
    on_heis = r"built for system brockett10 \(n=10, m=4\), not for heis3 \(n=3, m=2\)"
    for call in (lambda: decrease_rate(hsys, law_p1, lyap3, x3),
                 lambda: correction_field(hsys, law_p1, x3),
                 lambda: correction_ratio_sup(hsys, law_p1, lyap3, 0.5,
                                              Region.ball(3, 1.0), 16),
                 lambda: chen_fliess_predict(hsys, law_p1, x3)):
        with pytest.raises(ValueError, match=on_heis):
            call()
    on_brockett = r"built for system heis3 \(n=3, m=2\), not for brockett10"
    for integrate in (integrate_classical, integrate_sampled):
        with pytest.raises(ValueError, match=on_brockett):
            integrate(bsys, hlaw, X0_LEFT, T=0.1, substeps=400)
    # an equal system passes; a rebuilt one with fresh field closures does not
    assert decrease_rate(bk.brockett_system(), law_p1, bk.brockett_lyapunov(1.0),
                         X0_LEFT).w < 0.0
    assert chen_fliess_predict(hsys, hlaw, x3).predicted.shape == (3,)
    with pytest.raises(ValueError, match="not for heis3"):
        decrease_rate(heis3_system(), hlaw, lyap3, x3)


# --- oscillator iterated integrals ----------------------------------------------

def test_same_pair_coupling_is_minus_two_periods():
    for eps in (0.1, 0.05):
        same = np.diag(coupling_matrix((1, 2, 6), eps, 20_000))
        assert np.all(np.abs(same + 2.0 * eps) <= 1e-6 * 2.0 * eps)


def test_distinct_multipliers_decouple():
    eps = 0.1
    for ka, kb in ((1, 2), (2, 5), (3, 4), (1, 6)):
        val = coupling_matrix((ka, kb), eps, 20_000)[0, 1]
        scale = (2 * math.sqrt(ka * math.pi / eps)) \
            * (2 * math.sqrt(kb * math.pi / eps)) * eps * eps
        assert abs(val) <= 1e-8 * scale


def test_resonant_multipliers_couple():
    # equal multipliers on different pairs: the witness the assignment
    # invariant exists to prevent
    eps = 0.1
    val = coupling_matrix((3, 3), eps, 20_000)[0, 1]
    assert abs(val) > 0.5 * eps


def test_assignment_level_coupling_and_step_floor(bsys, law_p1):
    a = law_p1.assignment
    c = coupling_matrix(a.kappas, a.eps, 20_000)
    # pairs (1, 2) and (3, 4) of the assignment
    q12, q34 = a.pairs.index((1, 2)), a.pairs.index((3, 4))
    assert abs(c[q12, q12] + 2.0 * a.eps) <= 1e-6 * 2.0 * a.eps
    assert abs(c[q12, q34]) <= 1e-6
    for steps in (2_000, 3_999):
        with pytest.raises(ValueError, match=f"integer >= 4000, got {steps}"):
            coupling_matrix((1, 2), 0.1, steps)


def _same_pair_errors(kappas, eps, quad_steps):
    return np.abs(np.diag(coupling_matrix(kappas, eps, quad_steps))
                  + 2.0 * eps) / (2.0 * eps)


def test_richardson_same_pair_error_at_the_default_intervals():
    steps = RunConfig.quad_steps
    for eps in (0.1, 0.025, 1.0):
        assert np.all(_same_pair_errors((1, 2, 3, 4, 5, 6), eps, steps)
                      <= 1e-14)
        # kappa 13 leaves a sixth-order truncation error of about 1.5e-13
        assert np.all(_same_pair_errors((2, 3, 5, 7, 11, 13), eps, steps)
                      <= 2e-13)
    # the resonant pair still couples, at -2 eps
    val = coupling_matrix((3, 3), 0.1, steps)[0, 1]
    assert abs(val + 0.2) <= 1e-14 * 0.2


def test_richardson_at_least_as_accurate_as_plain_simpson_up_to_64():
    eps, kappas = 0.1, tuple(range(1, 65))
    s, cos, sin = integrator._quadrature_channels(kappas, eps, 20_000)
    plain = integrator._simpson_couplings(
        cos, sin, integrator._running_simpson, s[1])
    plain = np.abs(np.diag(plain) + 2.0 * eps) / (2.0 * eps)
    assert np.all(_same_pair_errors(kappas, eps, RunConfig.quad_steps)
                  <= plain)


def test_largest_accepted_multiplier_passes_at_the_floor():
    # 128 is the largest multiplier verify accepts; at 2000 intervals its
    # same-pair error would be 8.4e-6, past the check's 1e-6
    eps, kappas = 0.1, (1, 2, 3, 4, 5, 128)
    c = coupling_matrix(kappas, eps, integrator.MIN_QUAD_STEPS)
    assert np.all(_same_pair_errors(kappas, eps, integrator.MIN_QUAD_STEPS)
                  <= 1e-6 / 7)
    amp = np.array([2.0 * math.sqrt(k * math.pi / eps) for k in kappas])
    cross = ~np.eye(len(kappas), dtype=bool)
    assert np.all(np.abs(c[cross]) <= 1e-8 * np.outer(amp, amp)[cross]
                  * eps * eps)


@pytest.mark.parametrize("steps, grid", [(4000, 4000), (4001, 4004),
                                         (4002, 4004), (4004, 4004)])
def test_quadrature_runs_on_the_grid_rounded_up_to_a_multiple_of_4(steps, grid):
    got, change, intervals = integrator._couplings((1, 2, 6), 0.1, steps)
    assert intervals == grid
    want = coupling_matrix((1, 2, 6), 0.1, grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the Richardson step on the plain Simpson couplings of that grid
    s, cos, sin = integrator._quadrature_channels((1, 2, 6), 0.1, steps)
    assert len(s) == grid + 1
    fine = integrator._simpson_couplings(cos, sin, integrator._running_simpson,
                                         s[1])
    assert np.array_equal(got, fine + change / 15.0)


def test_coupling_matrix_refuses_unusable_periods_and_multipliers(
        monkeypatch):
    def no_channels(*args):
        raise AssertionError("a channel was computed")

    monkeypatch.setattr(integrator, "oscillator_waves", no_channels)
    monkeypatch.setattr(integrator._fastpath, "oscillator_quadrature",
                        no_channels)
    # the period refused with the wording of OscillatorAssignment, before a
    # math domain error, a NaN matrix or a warning can arise
    for eps in (-0.1, 0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError,
                           match="period eps must be finite and positive"):
            coupling_matrix((1, 2), eps, 10_000)
    # a multiplier 0 gave a zero row; fractional ones are no multipliers
    for kappas in ((0, 1), (1, -2), (1, 2.0), (1.5,), ("1",)):
        with pytest.raises(ValueError, match="integers >= 1"):
            coupling_matrix(kappas, 0.1, 10_000)
    # a float, a string and a bool are no interval counts: one message,
    # where numpy's TypeError, a comparison TypeError and "at least" were
    for steps in (20000.0, "20000", True, np.float64(20000)):
        with pytest.raises(ValueError, match=re.escape(
                f"quad_steps must be an integer >= 4000, got {steps!r}")):
            coupling_matrix((1, 2), 0.1, steps)


def test_coupling_matrix_takes_numpy_integer_interval_counts():
    want = coupling_matrix((1, 2), 0.1, 4000)
    for steps in (np.int64(4000), np.int32(4000), np.uint16(4000)):
        assert np.array_equal(coupling_matrix((1, 2), 0.1, steps), want)


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


def _write_csv_table(path):
    table = np.arange(60.0).reshape(20, 3) / 7.0
    integrator._write_csv(path, "a,b,c", table)


JSON_PAYLOAD = {"b": [1.5, -0.0, 1e300], "a": "é", "c": {"z": None, "y": True}}


def _write_json_payload(path):
    integrator._write_json(path, JSON_PAYLOAD)


WRITERS = pytest.mark.parametrize("write", [_write_csv_table,
                                            _write_json_payload],
                                  ids=["csv", "json"])


@WRITERS
@pytest.mark.parametrize("old", [None, b"", b"x" * 7, b"x\n" * 5000],
                         ids=["absent", "empty", "shorter", "longer"])
def test_rewrite_in_place_gives_the_bytes_of_a_fresh_write(tmp_path, write,
                                                           old):
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    write(fresh)
    if old is not None:
        target.write_bytes(old)
    write(target)
    assert target.read_bytes() == fresh.read_bytes()
    assert fresh.read_bytes().endswith(b"\n")


@WRITERS
def test_rewrite_keeps_the_inode_and_mode(tmp_path, write):
    target = tmp_path / "target"
    target.write_bytes(b"old\n" * 5000)
    target.chmod(0o640)
    before = target.stat()
    write(target)
    after = target.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_size < before.st_size


@WRITERS
def test_writing_to_the_null_device_does_not_raise(write):
    write(os.devnull)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@WRITERS
def test_writing_to_a_fifo_passes_the_bytes_through(tmp_path, write):
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    write(fresh)
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        write(fifo)
    finally:
        reader.join(timeout=10)
    assert got == [fresh.read_bytes()]


def test_json_bytes_equal_json_dump_with_non_ascii_escaped(tmp_path):
    target = tmp_path / "w.json"
    _write_json_payload(target)
    with open(tmp_path / "ref.json", "w", newline="\n") as fh:
        json.dump(JSON_PAYLOAD, fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert target.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert b"\\u00e9" in target.read_bytes()


def test_unencodable_json_payload_leaves_the_old_file(tmp_path):
    target = tmp_path / "w.json"
    target.write_bytes(b"old run\n")
    with pytest.raises(TypeError):
        integrator._write_json(target, {"a": object()})
    assert target.read_bytes() == b"old run\n"


def test_failing_formatter_leaves_only_the_rows_written(tmp_path, monkeypatch):
    monkeypatch.setattr(integrator, "CSV_CHUNK_ROWS", 2)
    calls = []

    def formatter(rows, cols):
        def format_block(block):
            calls.append(len(block))
            if len(calls) == 2:
                raise RuntimeError("formatter failed on the second block")
            return b"row\n" * len(block)
        return format_block

    monkeypatch.setattr(integrator._fastpath, "csv_formatter", formatter)
    target = tmp_path / "t.csv"
    target.write_bytes(b"old row\n" * 100)
    with pytest.raises(RuntimeError, match="second block"):
        integrator._write_csv(target, "a,b", np.zeros((5, 2)))
    assert calls == [2, 2]
    assert target.read_bytes() == b"a,b\nrow\nrow\n"
