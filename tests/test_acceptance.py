"""Acceptance gate: one test per criterion, one printed verdict line each.

Long-horizon case-study runs are shared through the ``paper_run`` session
cache; criterion 1 times its own fresh integration so the runtime bound
stays honest.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import simpson

from oscstab import brockett as bk
from oscstab.cli import RunConfig, compare
from oscstab.controller import oscillator_waves, synthesize_components
from oscstab.integrator import (coupling_matrix, integrate_classical,
                                prediction_order_probe)
from oscstab.lyapunov import negdef_scan
from oscstab.sampling import Region
from oscstab.vecfield import _bracket_columns

from conftest import (X0_LEFT, fd_bracket, random_polynomial_system,
                      ref_bracket_matrix)


def _report(num: int, name: str, facts: dict, ok: bool):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({name}): " \
        + ", ".join(f"{k}={v}" for k, v in facts.items())
    print("\n" + line)
    assert ok, line


def test_criterion_1_exponential_reproduction(bsys, lyap_p1, law_p1):
    t0 = time.perf_counter()
    traj = integrate_classical(bsys, law_p1, X0_LEFT, T=50.0, substeps=400,
                               lyap=lyap_p1)
    elapsed = time.perf_counter() - t0
    nb = traj.norms[::400]
    vb = traj.v[::400]
    active = nb[:-1] > 1e-8
    strict = bool(np.all(np.diff(vb)[active] < 0))
    keep = nb > 1e-8
    tb = traj.t[::400]
    a = np.vstack([tb[keep], np.ones(keep.sum())]).T
    coef, res, _, _ = np.linalg.lstsq(a, np.log(nb[keep]), rcond=None)
    ly = np.log(nb[keep])
    r2 = 1.0 - (float(res[0]) if res.size else 0.0) / float(np.sum((ly - ly.mean()) ** 2))
    ratio = traj.norms[-1] / traj.norms[0]
    _report(1, "fig1-left reproduction", {
        "strict_window_decrease": strict,
        "slope": f"{coef[0]:.4f}",
        "r2": f"{r2:.4f}",
        "terminal_over_initial": f"{ratio:.3e}",
        "runtime_s": f"{elapsed:.2f}",
        "solver_path": traj.solver_path,
    }, ok=strict and coef[0] < 0 and r2 >= 0.9 and ratio < 1e-2
        and elapsed < 10.0)


def test_criterion_2_polynomial_family_slower(paper_run):
    left = paper_run(1.0, "classical", 400)
    right = paper_run(1.5, "classical", 400)
    vb = right.v[::400]
    monotone = bool(np.all(np.diff(vb) < 0))
    _report(2, "fig1-right reproduction", {
        "monotone_decrease": monotone,
        "terminal_p1": f"{left.norms[-1]:.3e}",
        "terminal_p15": f"{right.norms[-1]:.3e}",
    }, ok=monotone and right.norms[-1] > left.norms[-1])


def test_criterion_3_prediction_order(bsys, law_p1):
    x0 = np.zeros(10)
    x0[4] = 1.0
    x0[0] = 0.5
    probe = prediction_order_probe(bsys, law_p1, x0, (0.1, 0.05, 0.025))
    _report(3, "one-step prediction order", {
        "exponent": f"{probe.exponent:.4f}",
        "residuals": [f"{r:.3e}" for r in probe.residuals],
    }, ok=1.3 <= probe.exponent <= 1.8 and not probe.excluded)


def test_criterion_4_oscillator_identities(law_p1):
    a = law_p1.assignment
    eps = a.eps
    c = coupling_matrix(a.kappas, eps, 20_000)
    same_err = 0.0
    cross_rel = 0.0
    for qa in range(len(a.pairs)):
        same_err = max(same_err, abs(c[qa, qa] + 2.0 * eps) / (2.0 * eps))
        for qb in range(len(a.pairs)):
            if qa == qb:
                continue
            scale = a.amplitude(qa) * a.amplitude(qb) * eps * eps
            cross_rel = max(cross_rel, abs(c[qa, qb]) / scale)
    s = np.linspace(0.0, eps, 4001)
    mean_err = 0.0
    energy_err = 0.0
    waves = oscillator_waves(a.kappas, a.omega, s)
    for q in range(len(a.pairs)):
        amp = a.amplitude(q)
        for wave in waves:
            f = amp * wave[q]
            mean_err = max(mean_err, abs(simpson(f, x=s)) / amp)
            energy_err = max(energy_err,
                             abs(simpson(f * f, x=s) / eps / (amp * amp / 2.0) - 1.0))
    _report(4, "oscillator identities", {
        "same_pair_rel_err": f"{same_err:.2e}",
        "cross_rel_coupling": f"{cross_rel:.2e}",
        "zero_mean_rel": f"{mean_err:.2e}",
        "energy_rel_err": f"{energy_err:.2e}",
    }, ok=same_err <= 1e-6 and cross_rel <= 1e-8 and mean_err <= 1e-10
        and energy_err <= 1e-8)


def test_criterion_5_synthesis_correctness(bsys, lyap_p1):
    rng = np.random.default_rng(77)
    worst_res = 0.0
    worst_match = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 10)
        v0, vt = synthesize_components(bsys, lyap_p1, x)
        sol = np.concatenate([v0, vt])
        g = lyap_p1.grad(x)
        res = float(np.linalg.norm(
            ref_bracket_matrix(bsys, x) @ sol + g))
        worst_res = max(worst_res, res / max(1.0, float(np.linalg.norm(g))))
        worst_match = max(worst_match,
                          float(np.max(np.abs(vt - bk.brockett_vtilde(1.0, x)))))
    _report(5, "synthesis correctness", {
        "worst_relative_residual": f"{worst_res:.2e}",
        "worst_closed_form_mismatch": f"{worst_match:.2e}",
    }, ok=worst_res <= 1e-10 and worst_match <= 1e-10)


def test_criterion_6_certificate_negativity_and_gain_intervals():
    rep = negdef_scan(lambda x: bk.brockett_decrease_rate(1.0, 0.5, x),
                      Region.ball(10, 2.0), 10_000, r_min=1e-6, seed=20_24)
    lo1, hi1 = bk.stable_gain_interval(1.0)
    lo2, hi2 = bk.stable_gain_interval(1.5, H=1.0)
    _report(6, "certificate negativity and gain intervals", {
        "violations": rep.violations,
        "worst_value": f"{rep.worst_value:.4f}",
        "interval_p1": (lo1, round(hi1, 12)),
        "interval_p15_H1": (lo2, hi2),
    }, ok=rep.violations == 0
        and (lo1, hi1) == (0.0, math.sqrt(2.0))
        and (lo2, hi2) == (0.0, 1.0))


def test_criterion_7_bracket_oracle(bsys):
    worst_fd = 0.0
    for seed in (101, 202, 303):
        sys_ = random_polynomial_system(seed)
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            analytic = _bracket_columns(sys_, x)[:, 2]
            oracle = fd_bracket(sys_.fields[0], sys_.fields[1], x)
            worst_fd = max(worst_fd,
                           float(np.linalg.norm(analytic - oracle))
                           / max(1.0, float(np.linalg.norm(oracle))))
    worst_exact = 0.0
    rng = np.random.default_rng(55)
    e = np.eye(10)
    for _ in range(20):
        x = rng.uniform(-3, 3, 10)
        worst_exact = max(worst_exact, float(np.max(np.abs(
            _bracket_columns(bsys, x)[:, 4:] - 2.0 * e[:, 4:]))))
    _report(7, "bracket oracle", {
        "fd_rel_err": f"{worst_fd:.2e}",
        "case_study_abs_err": f"{worst_exact:.2e}",
    }, ok=worst_fd <= 1e-6 and worst_exact <= 1e-12)


def test_criterion_8_sampled_comparison_and_determinism(tmp_path):
    cfgs = [RunConfig(x0="fig1-left", T=50.0, substeps=400, seed=9,
                      outdir=str(tmp_path / d)) for d in ("a", "b")]
    payloads = [compare(c)[0] for c in cfgs]
    nc = payloads[0]["runs"]["classical"]["terminal_norm"]
    ns = payloads[0]["runs"]["sampled"]["terminal_norm"]
    identical = True
    for name in ("trajectory_classical.csv", "trajectory_sampled.csv",
                 "windows_classical.json", "windows_sampled.json",
                 "compare.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            identical = False
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    for s in (sa, sb):
        s.pop("wall_clock_s")       # timing is the one nondeterministic field
        s["config"].pop("outdir")
    identical = identical and sa == sb
    _report(8, "classical vs sampled comparison", {
        "terminal_classical": f"{nc:.3e}",
        "terminal_sampled": f"{ns:.3e}",
        "sup_gap_windows": f"{payloads[0]['compare']['sup_diff_windows']:.3e}",
        "byte_identical": identical,
    }, ok=nc < 0.05 and ns < 0.05 and identical)


def test_criterion_9_solver_self_convergence(paper_run):
    diffs = {}
    for p, mode in ((1.0, "classical"), (1.5, "classical"), (1.0, "sampled")):
        base = paper_run(p, mode, 400)
        fine = paper_run(p, mode, 800)
        diffs[f"p{p}_{mode}"] = float(np.max(np.abs(base.states[-1]
                                                    - fine.states[-1])))
    _report(9, "solver self-convergence", {
        k: f"{v:.2e}" for k, v in diffs.items()
    }, ok=all(v <= 1e-6 for v in diffs.values()))
