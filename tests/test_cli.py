import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oscstab
from oscstab import _fastpath, brockett, cli, integrator
from oscstab.cli import (ConfigError, RunConfig, compare, fit_exponential,
                         fit_powerlaw, load_config_file, run, verify)
from oscstab.controller import oscillator_amplitude

from conftest import needs_cc


def _cfg(tmp_path, **kw):
    kw.setdefault("outdir", str(tmp_path / "out"))
    kw.setdefault("T", 1.0)
    return RunConfig(**kw)


# --- config handling ------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# comment line\n"
        "gamma = 0.4\n"
        "substeps = 800   # inline comment\n"
        "kappas = 2,1,3,4,5,6\n"
        "x0 = fig1-right\n"
        "cf_eps = 0.1,0.05\n")
    values = load_config_file(str(f))
    assert values["gamma"] == 0.4
    assert values["substeps"] == 800
    assert values["kappas"] == (2, 1, 3, 4, 5, 6)
    assert values["x0"] == "fig1-right"
    assert values["cf_eps"] == (0.1, 0.05)


def test_x0_vector_with_exponents_is_a_vector(tmp_path):
    # a letter in a number (1e-1) does not make it a preset name
    x0 = "1E-1, -2e0" + ", 0" * 8
    f = tmp_path / "run.cfg"
    f.write_text(f"x0 = {x0}\n")
    want = (0.1, -2.0) + (0.0,) * 8
    assert load_config_file(str(f))["x0"] == want
    assert cli._parse_value("x0", x0.replace(" ", "")) == want


def test_config_file_rejects_unknown_keys(tmp_path):
    f = tmp_path / "run.cfg"
    for line in ("gamm = 0.4\n", "H = 1.0\n"):
        f.write_text(line)
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(str(f))
    f.write_text("gamma 0.4\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(str(f))


@pytest.mark.parametrize("flag, raw", [("--gamma", "abc"), ("--kappas", "1,x"),
                                       ("--substeps", "4.5"),
                                       ("--cf-eps", "0.1,")])
def test_malformed_flag_value_is_a_config_error(tmp_path, capsys, flag, raw):
    key = flag[2:].replace("-", "_")
    assert cli.main(["run", flag, raw, "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad value {raw!r} for config key {key!r}\n"
    assert not (tmp_path / "o").exists()


def test_malformed_config_file_value_names_the_line(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("# gain\ngamma = 0.5x\n")
    with pytest.raises(ConfigError, match=r":2: bad value '0\.5x'"):
        load_config_file(str(f))
    assert cli.main(["run", "--config", str(f),
                     "--outdir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        f"error: {f}:2: bad value '0.5x' for config key 'gamma'\n"


# keys that were settable once and are module constants (or gone) now
REMOVED_KEYS = ("span_radius", "negdef_radius", "gain_radius", "c1_radius",
                "conv_threshold", "norm_floor", "fit_lo", "fit_hi",
                "resonance_witness")


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_rejected(tmp_path, key, capsys):
    f = tmp_path / "run.cfg"
    f.write_text(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config_file(str(f))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", f"--{key.replace('_', '-')}", "1",
                  "--outdir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_flag_overrides_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("gamma = 0.4\nT = 1\n")
    code = cli.main(["run", "--config", str(f), "--gamma", "0.6",
                     "--outdir", str(tmp_path / "o"), "--T", "1"])
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["gamma"] == 0.6


def test_preset_resolution():
    cfg = RunConfig(x0="fig1-right")
    assert cfg.resolved_p() == 1.5
    assert np.array_equal(cfg.resolved_x0(), np.array([1.0, -1.0] * 5))
    cfg2 = RunConfig(x0="fig1-right", p=1.0)
    assert cfg2.resolved_p() == 1.0
    with pytest.raises(ConfigError, match="preset"):
        RunConfig(x0="fig9").resolved_x0()


def test_unknown_system_and_mode_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown system"):
        run(_cfg(tmp_path, system="segway"))
    with pytest.raises(ConfigError, match="bad mode"):
        run(_cfg(tmp_path, mode="spectral"))
    assert cli.main(["run", "--system", "segway"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "--span-n", "0"], "span_n must be at least 1, got 0"),
    (["verify", "--negdef-n", "0"], "negdef_n must be at least 1, got 0"),
    (["verify", "--gain-n", "0"], "gain_n must be at least 1, got 0"),
    (["verify", "--c1-n", "0"], "c1_n must be at least 1, got 0"),
    (["verify", "--quad-steps", "3999"],
     "quad_steps must be an integer >= 4000, got 3999"),
    (["verify", "--cf-eps", "0.1,0.05"],
     "cf_eps must hold at least 3 strictly decreasing finite positive "
     "periods, got [0.1, 0.05]"),
    (["verify", "--cf-eps", "inf,0.05,0.025"],
     "cf_eps must hold at least 3 strictly decreasing finite positive "
     "periods, got [inf, 0.05, 0.025]"),
    (["run", "--substeps", "0"],
     "substeps=0 resolves the fastest oscillator poorly; need at least 300"),
    (["compare", "--T", "inf"], "horizon T=inf is not finite"),
    (["verify", "--gamma", "nan"], "gamma must be finite and >= 0, got nan"),
    (["verify", "--gamma", "inf"], "gamma must be finite and >= 0, got inf"),
    (["verify", "--eps", "nan"],
     "period eps must be finite and positive, got nan"),
    (["run", "--p", "nan"], "exponent p must be finite and >= 1, got nan"),
    (["run", "--x0", "1,2"], "x0 must hold 10 finite entries, got [1.0, 2.0]"),
    (["run", "--x0", "inf" + ",0" * 9],
     "x0 must hold 10 finite entries, got [inf" + ", 0.0" * 9 + "]"),
    (["verify", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["verify", "--kappas", "1,2,3,4,5,200"],
     "the order probe resolves multipliers up to 128, "
     "got kappas [1, 2, 3, 4, 5, 200]"),
], ids=["span_n", "negdef_n", "gain_n", "c1_n", "quad_steps", "cf_eps",
        "cf_eps-inf", "substeps", "T-inf", "gamma-nan", "gamma-inf", "eps-nan",
        "p-nan", "x0-length", "x0-inf", "seed", "kappas-probe"])
def test_unusable_knob_is_a_config_error_before_any_work(tmp_path, capsys,
                                                         argv, message):
    assert cli.main([*argv, "--outdir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_module_entry_point_runs_the_command_line(tmp_path):
    # python -m oscstab from a source tree, with src on the path only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oscstab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oscstab", "verify", "--seed", "-1",
         "--outdir", str(tmp_path / "o")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == "error: seed must be at least 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_duplicate_multiplier_override_rejected_before_running(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        run(_cfg(tmp_path, kappas=(1, 1, 2, 3, 4, 5)))
    assert cli.main(["run", "--kappas", "1,1,2,3,4,5"]) == 1


# --- rate estimation --------------------------------------------------------------

def test_exponential_fit_recovers_exact_rate():
    t = 0.1 * np.arange(200)
    y = np.exp(-0.3 * t)
    slope, r2 = fit_exponential(t, y)
    assert abs(slope + 0.3) <= 1e-6
    assert r2 >= 1.0 - 1e-12


def test_powerlaw_fit_recovers_exact_exponent():
    t = 0.1 * np.arange(1, 300)
    y = 2.0 * t ** -2.0
    assert abs(fit_powerlaw(t, y) + 2.0) <= 1e-9


# --- run -----------------------------------------------------------------------------

def test_run_trivial_origin(tmp_path):
    payload, code = run(_cfg(tmp_path, x0=(0.0,) * 10, T=1.0))
    assert code == 0
    s = payload["runs"]["classical"]
    assert s["terminal_norm"] == 0.0
    assert s["converged"] and not s["diverged"]
    out = tmp_path / "out"
    assert (out / "trajectory_classical.csv").exists()
    assert (out / "windows_classical.json").exists()
    assert (out / "summary.json").exists()


def test_run_not_converged_exit_code(tmp_path):
    payload, code = run(_cfg(tmp_path, T=1.0))
    assert code == 3
    assert not payload["runs"]["classical"]["converged"]


def test_run_divergence_exit_code(tmp_path):
    payload, code = run(_cfg(tmp_path, x0=(4e6,) + (0.0,) * 9, T=1.0))
    assert code == 2
    assert payload["runs"]["classical"]["diverged"]


def test_run_both_modes_writes_all_artifacts(tmp_path):
    payload, code = run(_cfg(tmp_path, mode="both", T=1.0))
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    for mode in ("classical", "sampled"):
        assert (out / f"trajectory_{mode}.csv").exists()
        assert (out / f"windows_{mode}.json").exists()
        assert mode in payload["runs"]
        path = summary["runs"][mode]["solver_path"]
        assert path == "compiled" or path.startswith("generic ("), path
    assert payload["schema"] == 1


def test_run_synthesized_law_mode(tmp_path):
    payload, code = run(_cfg(tmp_path, law_mode="synthesized", T=0.2,
                             substeps=400))
    assert payload["runs"]["classical"]["window_count"] == 2
    assert payload["runs"]["classical"]["solver_path"] == (
        "generic (not the case-study closed-form law)")


def test_reports_record_which_callables_run_blockwise(tmp_path):
    closed = {"fields": [True] * 4, "jacobians": [True] * 4,
              "components": True, "components_jac": True, "v": True,
              "grad": True}
    payload, _ = run(_cfg(tmp_path, mode="both", T=0.2))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for mode in ("classical", "sampled"):
        assert summary["runs"][mode]["blockwise"] == closed
    payload, _ = run(_cfg(tmp_path, law_mode="synthesized", T=0.1))
    assert payload["runs"]["classical"]["blockwise"] == {
        **closed, "components": False, "components_jac": False}
    payload, _ = verify(_cfg(tmp_path, **VERIFY_KW))
    written = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert payload["blockwise"] == written["blockwise"] == closed


def _no_kernel():
    raise _fastpath.KernelUnavailable("no compiler: disabled for the test")


@pytest.mark.parametrize("kernel", [pytest.param("compiled", marks=needs_cc),
                                    "missing"])
def test_reports_record_the_csv_writer(tmp_path, monkeypatch, kernel):
    if kernel == "missing":
        monkeypatch.setattr(_fastpath, "kernel", _no_kernel)
        monkeypatch.setattr(integrator, "_fallback_warned", True)
        want = "python (no compiler: disabled for the test)"
    else:
        want = "compiled"
    payload, _ = compare(_cfg(tmp_path, T=0.2))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for mode in ("classical", "sampled"):
        assert payload["runs"][mode]["csv_writer"] == want
        assert summary["runs"][mode]["csv_writer"] == want
        assert summary["runs"][mode]["solver_path"] == (
            "compiled" if kernel == "compiled"
            else "generic (no compiler: disabled for the test)")


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / "root"))
    payload, code = run(RunConfig(x0=(0.0,) * 10, T=1.0, outdir="sub"))
    assert (tmp_path / "root" / "sub" / "summary.json").exists()


def _boundary_trajectory(norms, v):
    """One sample per window: boundary norms ``norms`` (one-state rows)
    and V values ``v``."""
    norms = np.asarray(norms, dtype=float)
    return integrator.Trajectory(
        t=0.1 * np.arange(len(norms)), states=norms[:, None],
        eps=0.1, substeps=1, mode="classical", v=np.asarray(v, dtype=float))


@pytest.mark.parametrize("scale, monotone", [(1e-5, False), (1e-9, True)])
def test_monotone_decrease_ignores_only_windows_below_the_floor(scale,
                                                                monotone):
    # V rises across the first window; that counts above the 1e-8 activity
    # floor on the norm and is ignored below it
    traj = _boundary_trajectory(scale * np.array([1.0, 0.5, 0.2, 0.1]),
                                scale ** 2 * np.array([1.0, 2.0, 0.1, 0.01]))
    assert cli._run_summary(traj)["monotone_decrease"] is monotone


# --- compare ---------------------------------------------------------------------------

def test_compare_zero_initial_state_zero_gap(tmp_path):
    payload, code = compare(_cfg(tmp_path, x0=(0.0,) * 10, T=1.0))
    assert code == 0
    assert payload["compare"]["sup_diff_windows"] == 0.0
    assert payload["compare"]["sup_diff_all"] == 0.0


def test_compare_gamma_zero_matches_hold_vs_exponential_formula(tmp_path):
    # with no oscillation and no bracket coordinates excited the loop is
    # linear on the actuated block, so the window-boundary gap has the exact
    # closed form |e^(-j eps) - (1-eps)^j| * ||x0||
    x0 = (1.0, -1.0, 1.5, -0.5) + (0.0,) * 6
    payload, code = compare(_cfg(tmp_path, x0=x0, gamma=0.0, T=2.0))
    gaps = []
    with open(tmp_path / "out" / "compare.csv") as fh:
        next(fh)
        rows = [line.split(",") for line in fh.read().splitlines()]
    eps, sub = 0.1, 400
    x0n = np.linalg.norm(x0)
    for j in range(0, 21):
        t, nc, ns, dd = (float(v) for v in rows[j * sub])
        expect = abs(math.exp(-j * eps) - (1 - eps) ** j) * x0n
        assert abs(dd - expect) <= 1e-9
    assert math.isclose(payload["compare"]["sup_diff_windows"],
                        max(abs(math.exp(-j * eps) - (1 - eps) ** j) * x0n
                            for j in range(21)), rel_tol=1e-6)


def test_compare_terminal_diff_is_the_last_row(tmp_path):
    payload, _ = compare(_cfg(tmp_path, T=1.0))
    with open(tmp_path / "out" / "compare.csv") as fh:
        before, last = (float(line.split(",")[-1])
                        for line in fh.read().splitlines()[-2:])
    assert payload["compare"]["terminal_diff"] == last != before


def test_compare_outputs_are_deterministic(tmp_path):
    cfg1 = _cfg(tmp_path, outdir=str(tmp_path / "a"), T=1.0)
    cfg2 = _cfg(tmp_path, outdir=str(tmp_path / "b"), T=1.0)
    compare(cfg1)
    compare(cfg2)
    for name in ("trajectory_classical.csv", "trajectory_sampled.csv",
                 "compare.csv", "windows_classical.json",
                 "windows_sampled.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("wall_clock_s")
    sb.pop("wall_clock_s")
    sa["config"].pop("outdir")
    sb["config"].pop("outdir")
    assert sa == sb


# --- verify -----------------------------------------------------------------------------

VERIFY_KW = dict(negdef_n=1000, gain_n=512, c1_n=256, span_n=32,
                 quad_steps=12_000)


def test_verify_case_study_passes(tmp_path):
    payload, code = verify(_cfg(tmp_path, **VERIFY_KW))
    assert code == 0
    assert payload["all_pass"]
    names = set(payload["checks"])
    assert names == {"span", "certificate_negdef", "gain_bound",
                     "synthesis_margin", "prediction_order", "oscillators"}
    # every sampled check names its region and seed
    checks = payload["checks"]
    for name in ("certificate_negdef", "gain_bound", "synthesis_margin"):
        assert {"region", "N", "seed"} <= set(checks[name]), name
        assert checks[name]["seed"] == 2024
    assert checks["gain_bound"]["N"] == VERIFY_KW["gain_n"]
    assert checks["gain_bound"]["region"]["radius"] == cli.GAIN_RADIUS
    assert checks["synthesis_margin"]["N"] == VERIFY_KW["c1_n"]
    assert checks["synthesis_margin"]["region"]["radius"] == cli.C1_RADIUS
    assert checks["span"]["seed"] == 2024
    # written like summary.json: indent 1, sorted keys, LF, final newline
    text = (tmp_path / "out" / "verify.json").read_bytes().decode()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_verify_law_modes_agree(tmp_path, monkeypatch):
    # the synthesized law solves for the closed-form one's components, so
    # every check reads the same values, the order probe's too: it runs the
    # closed-form law on the compiled kernel (where there is one) and the
    # synthesized law on the generic stepper, here with one coarse pair of
    # 150 and 300 steps per period that keeps the synthesized probe to about
    # a second
    monkeypatch.setattr(integrator, "MIN_SUBSTEPS_PER_KAPPA", 25)
    monkeypatch.setattr(integrator, "PROBE_START", 150)
    monkeypatch.setattr(integrator, "PROBE_SUBSTEPS", 150)
    kw = dict(VERIFY_KW, gain_n=128, c1_n=64)
    closed, _ = verify(_cfg(tmp_path, outdir=str(tmp_path / "c"), **kw))
    synth, _ = verify(_cfg(tmp_path, outdir=str(tmp_path / "s"),
                           law_mode="synthesized", **kw))
    assert synth["config"]["law_mode"] == "synthesized"
    for name in ("span", "gain_bound", "synthesis_margin", "prediction_order"):
        assert closed["checks"][name]["pass"], name
    assert synth["checks"] == closed["checks"]


def test_verify_detects_resonant_oscillators(tmp_path, monkeypatch):
    # what two equal multipliers give: cross coupling -2 eps like a pair with
    # itself, which the orthogonality check must not let pass
    monkeypatch.setattr(cli, "_couplings", lambda kappas, eps, steps: (
        np.full((len(kappas), len(kappas)), -2.0 * eps),
        np.zeros((len(kappas), len(kappas))), 4000))
    payload, code = verify(_cfg(tmp_path, **VERIFY_KW))
    assert code == 2
    osc = payload["checks"]["oscillators"]
    assert not osc["pass"]
    assert osc["same_pair_rel_err"] == 0.0
    assert osc["cross_rel_coupling"] > 1e-3
    others = {k for k, c in payload["checks"].items() if not c["pass"]}
    assert others == {"oscillators"}


def test_verify_oscillator_errors_match_loop_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    seen = {}

    def couplings(kappas, eps, steps):
        k = len(kappas)
        c = rng.standard_normal((k, k)) * 1e-6 - 2.0 * eps * np.eye(k)
        d = rng.standard_normal((k, k)) * 1e-9
        seen.update(kappas=kappas, eps=eps, c=c, d=d)
        return c, d, 4004

    monkeypatch.setattr(cli, "_couplings", couplings)
    payload, _ = verify(_cfg(tmp_path, **VERIFY_KW))
    kappas, eps, c, d = seen["kappas"], seen["eps"], seen["c"], seen["d"]
    k = len(kappas)
    amp = [oscillator_amplitude(kq, eps) for kq in kappas]
    same = max(abs(float(c[q, q]) + 2.0 * eps) / (2.0 * eps) for q in range(k))
    cross = max(abs(float(c[qa, qb])) / (amp[qa] * amp[qb] * eps * eps)
                for qa in range(k) for qb in range(k) if qa != qb)
    change = max(abs(float(d[qa, qb])) / (2.0 * eps if qa == qb else
                                          amp[qa] * amp[qb] * eps * eps)
                 for qa in range(k) for qb in range(k))
    osc = payload["checks"]["oscillators"]
    assert (osc["same_pair_rel_err"], osc["cross_rel_coupling"],
            osc["half_step_change"], osc["intervals"]) \
        == (same, cross, change, 4004)


def test_verify_fails_nan_couplings(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_couplings", lambda kappas, eps, steps: (
        np.full((len(kappas), len(kappas)), np.nan),
        np.full((len(kappas), len(kappas)), np.nan), 4000))
    payload, code = verify(_cfg(tmp_path, **VERIFY_KW))
    assert code == 2
    osc = payload["checks"]["oscillators"]
    assert not osc["pass"]
    assert math.isnan(osc["same_pair_rel_err"])
    assert math.isnan(osc["cross_rel_coupling"])
    assert math.isnan(osc["half_step_change"])
    others = {k for k, c in payload["checks"].items() if not c["pass"]}
    assert others == {"oscillators"}


def test_verify_detects_bad_gain(tmp_path):
    payload, code = verify(_cfg(tmp_path, gamma=1.35, **VERIFY_KW))
    assert code == 2
    checks = payload["checks"]
    assert not checks["certificate_negdef"]["pass"]
    # past the design interval on their own numbers: gamma_max is about 1.21
    # with no beta violation, and the margin's sup about 1.15
    gain, margin = checks["gain_bound"], checks["synthesis_margin"]
    assert gain["beta_violations"] == 0 and gain["gamma_max"] < 1.35
    assert not gain["pass"]
    assert margin["sup"] > 1.0 and not margin["pass"]


def _failed(payload):
    return {k for k, c in payload["checks"].items() if not c["pass"]}


@pytest.mark.parametrize("exponent, ok", [(1.29, False), (1.31, True),
                                          (1.79, True), (1.81, False)])
def test_verify_order_band_edges(tmp_path, monkeypatch, exponent, ok):
    # brockett10's probe lands inside [1.3, 1.8]; the band's edges are
    # driven by the probe's result
    probe = integrator.OrderProbeResult(exponent, (0.1, 0.05, 0.025),
                                        (1e-3, 4e-4, 1.6e-4), ())
    monkeypatch.setattr(cli, "prediction_order_probe", lambda *a: probe)
    payload, code = verify(_cfg(tmp_path, **VERIFY_KW))
    assert payload["checks"]["prediction_order"]["exponent"] == exponent
    assert _failed(payload) == (set() if ok else {"prediction_order"})
    assert code == (0 if ok else 2)


def test_verify_order_probe_step_budget(tmp_path, probe_runs):
    # step doubling stops at (1600, 800) or sooner at the defaults: 5,200
    # steps in all, against 19,200 at a fixed 6,400 per period
    payload, _ = verify(_cfg(tmp_path, **VERIFY_KW))
    order = payload["checks"]["prediction_order"]
    assert sum(n for _, n, _ in probe_runs) <= 8400
    assert order["substeps"] == [max(n for t, n, _ in probe_runs if t == e)
                                 for e in payload["config"]["cf_eps"]]
    assert order["resolved"] == [True] * 3
    assert all(0.0 < est <= 1e-9 * rho for est, rho in
               zip(order["estimate"], order["residuals"]))


def test_verify_quadrature_and_prediction_budget(tmp_path, monkeypatch):
    # a default verify: one channel evaluation on at most 4001 samples, and
    # one Chen-Fliess prediction for the whole order probe
    grids, channels, predictions = [], [], []

    def spy(record, fn):
        def wrapped(*args):
            out = fn(*args)
            record.append(out)
            return out
        return wrapped

    monkeypatch.setattr(integrator, "_quadrature_grid",
                        spy(grids, integrator._quadrature_grid))
    monkeypatch.setattr(_fastpath, "oscillator_quadrature",
                        spy(channels, _fastpath.oscillator_quadrature))
    monkeypatch.setattr(integrator, "oscillator_waves",
                        spy(channels, integrator.oscillator_waves))
    monkeypatch.setattr(integrator, "chen_fliess_predict",
                        spy(predictions, integrator.chen_fliess_predict))
    payload, code = verify(RunConfig(outdir=str(tmp_path / "out")))
    assert code == 0
    assert grids and all(len(s) <= 4001 for s in grids)
    assert len(channels) == 1
    assert len(predictions) == 1
    osc = payload["checks"]["oscillators"]
    assert osc["intervals"] == 4000
    assert 0.0 < osc["half_step_change"] <= 1e-8


def test_verify_reports_the_rounded_quadrature_grid(tmp_path):
    for steps in (4001, 4002):
        payload, _ = verify(_cfg(tmp_path, **dict(VERIFY_KW, quad_steps=steps)))
        assert payload["config"]["quad_steps"] == steps
        assert payload["checks"]["oscillators"]["intervals"] == 4004


def test_verify_verdict_ignores_an_unresolved_period(tmp_path, monkeypatch):
    # a cap of 800 leaves the last period short of its 1600 steps: it is
    # flagged, and the verdict is the exponent's, as before
    full, _ = verify(_cfg(tmp_path, outdir=str(tmp_path / "full"), **VERIFY_KW))
    monkeypatch.setattr(integrator, "PROBE_SUBSTEPS", 400)
    capped, code = verify(_cfg(tmp_path, outdir=str(tmp_path / "cap"),
                               **VERIFY_KW))
    order = capped["checks"]["prediction_order"]
    want = full["checks"]["prediction_order"]
    assert want["resolved"] == [True] * 3
    assert order["resolved"] == [True, True, False]
    assert order["substeps"] == [800, 800, 800]
    assert order["estimate"][2] > 1e-9 * order["residuals"][2]
    assert order["residuals"][:2] == want["residuals"][:2]
    assert code == 0 and order["pass"]
    assert math.isclose(order["exponent"], want["exponent"], rel_tol=1e-9)


def test_order_probe_cap_keeps_multiplier_128(probe_runs):
    # 50 steps per unit of 128 is 6400, the coarse half of the capped pair
    cli._check_verify_knobs(RunConfig(kappas=(1, 2, 3, 4, 5, 128)))
    with pytest.raises(ConfigError, match="up to 128"):
        cli._check_verify_knobs(RunConfig(kappas=(1, 2, 3, 4, 5, 129)))
    law = brockett.brockett_law(1.0, 0.5, 0.1, kappas=(1, 2, 3, 4, 5, 128))
    probe = integrator.prediction_order_probe(
        law.system, law, np.eye(10)[4], (0.1, 0.05, 0.025))
    assert [n for _, n, _ in probe_runs] == [6400, 12800] * 3
    assert probe.substeps == (12800,) * 3


def test_verify_span_fails_on_one_point(tmp_path, monkeypatch):
    # brockett10's brackets span everywhere; one refused point of the
    # sampled ball must fail the check
    real = cli.bracket_generating_check

    def one_refused(sys_, x):
        good, sv = real(sys_, x)
        return np.arange(good.size) != 5, sv

    monkeypatch.setattr(cli, "bracket_generating_check", one_refused)
    payload, code = verify(_cfg(tmp_path, **VERIFY_KW))
    assert code == 2
    assert _failed(payload) == {"span"}


def test_main_verify_prints_verdicts(tmp_path, capsys):
    code = cli.main(["verify", "--outdir", str(tmp_path / "v"),
                     "--negdef-n", "500", "--gain-n", "256", "--c1-n", "128",
                     "--span-n", "16", "--quad-steps", "12000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS span" in out
    assert "verification: PASS" in out


@pytest.mark.parametrize("first_T", [1.0, 0.5, 0.2],
                         ids=["longer", "same", "shorter"])
def test_compare_rerun_into_one_outdir_matches_a_fresh_outdir(tmp_path,
                                                              first_T):
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    compare(_cfg(tmp_path, outdir=str(fresh), T=0.5))
    compare(_cfg(tmp_path, outdir=str(again), T=first_T))
    compare(_cfg(tmp_path, outdir=str(again), T=0.5))
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(again)) == names and len(names) == 6
    for name in names:
        a, b = (fresh / name).read_bytes(), (again / name).read_bytes()
        if name == "summary.json":
            a, b = json.loads(a), json.loads(b)
            for s, d in ((a, fresh), (b, again)):
                assert s.pop("wall_clock_s") >= 0.0
                assert s["config"].pop("outdir") == str(d)
        assert a == b, name
