import json
import math

import numpy as np
import pytest

from oscstab import cli
from oscstab.cli import (ConfigError, RunConfig, compare, fit_exponential,
                         fit_powerlaw, load_config_file, run, verify)


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
        "cf_eps = 0.1,0.05\n"
        "resonance_witness = true\n")
    values = load_config_file(str(f))
    assert values["gamma"] == 0.4
    assert values["substeps"] == 800
    assert values["kappas"] == (2, 1, 3, 4, 5, 6)
    assert values["x0"] == "fig1-right"
    assert values["cf_eps"] == (0.1, 0.05)
    assert values["resonance_witness"] is True


def test_config_file_rejects_unknown_keys(tmp_path):
    f = tmp_path / "run.cfg"
    for line in ("gamm = 0.4\n", "H = 1.0\n"):
        f.write_text(line)
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(str(f))
    f.write_text("gamma 0.4\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(str(f))


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
    for mode in ("classical", "sampled"):
        assert (out / f"trajectory_{mode}.csv").exists()
        assert (out / f"windows_{mode}.json").exists()
        assert mode in payload["runs"]
    assert payload["schema"] == 1


def test_run_synthesized_law_mode(tmp_path):
    payload, code = run(_cfg(tmp_path, law_mode="synthesized", T=0.2,
                             substeps=400))
    assert payload["runs"]["classical"]["window_count"] == 2


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / "root"))
    payload, code = run(RunConfig(x0=(0.0,) * 10, T=1.0, outdir="sub"))
    assert (tmp_path / "root" / "sub" / "summary.json").exists()


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
    assert (tmp_path / "out" / "verify.json").exists()


def test_verify_resonance_witness_fails(tmp_path):
    payload, code = verify(_cfg(tmp_path, resonance_witness=True, **VERIFY_KW))
    assert code == 2
    assert not payload["checks"]["oscillators"]["pass"]
    assert abs(payload["checks"]["oscillators"]["witness_coupling"]) > 0.05


def test_verify_detects_bad_gain(tmp_path):
    payload, code = verify(_cfg(tmp_path, gamma=1.35, **VERIFY_KW))
    assert code == 2
    assert not payload["checks"]["certificate_negdef"]["pass"]


def test_main_verify_prints_verdicts(tmp_path, capsys):
    code = cli.main(["verify", "--outdir", str(tmp_path / "v"),
                     "--negdef-n", "500", "--gain-n", "256", "--c1-n", "128",
                     "--span-n", "16", "--quad-steps", "12000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS span" in out
    assert "verification: PASS" in out
