"""Operator surface: configured runs, comparisons and verification sweeps.

Configs are flat ``key = value`` text files, overridable flag by flag on the
command line; every artifact ends up in the output directory as CSV or JSON.
Exit codes: 0 on success/convergence, 1 on configuration errors, 2 on a
divergence flag or failed verification check, 3 when a run completes without
reaching the convergence threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import brockett
from .integrator import (Trajectory, integrate_classical,
                         integrate_sampled, iterated_integral_coefficient,
                         oscillator_coupling, prediction_order_probe,
                         write_trajectory_csv, write_windows_json)
from .lyapunov import (correction_ratio_sup, gain_bound_scan, negdef_scan)
from .sampling import Region, sample_region
from .vecfield import bracket_generating_check

__all__ = ["RunConfig", "load_config_file", "run", "compare", "verify",
           "fit_exponential", "fit_powerlaw", "main"]

ENV_OUTPUT_ROOT = "OSCSTAB_OUT"
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    system: str = "brockett10"
    mode: str = "classical"            # classical | sampled | both
    x0: str = "fig1-left"              # preset name or comma-separated vector
    p: Optional[float] = None          # defaults from the preset, else 1.0
    gamma: float = 0.5
    eps: float = 0.1
    T: float = 50.0
    substeps: int = 400
    kappas: Optional[Tuple[int, ...]] = None
    law_mode: str = "closed-form"      # closed-form | synthesized
    seed: int = 2024
    outdir: str = "out"
    conv_threshold: float = 1e-2       # terminal norm relative to initial
    norm_floor: float = 1e-6
    fit_lo: float = 0.15
    fit_hi: float = 0.85
    # verification knobs
    span_n: int = 128
    span_radius: float = 5.0
    negdef_n: int = 10000
    negdef_radius: float = 2.0
    gain_n: int = 4096
    gain_radius: float = 2.0
    c1_n: int = 2048
    c1_radius: float = 1.0
    cf_eps: Tuple[float, ...] = (0.1, 0.05, 0.025)
    quad_steps: int = 20000
    resonance_witness: bool = False

    def resolved_p(self) -> float:
        if self.p is not None:
            return self.p
        if isinstance(self.x0, str) and self.x0 in brockett.PRESETS:
            return float(brockett.PRESETS[self.x0]["p"])
        return 1.0

    def resolved_x0(self) -> np.ndarray:
        if isinstance(self.x0, str):
            try:
                return np.array(brockett.PRESETS[self.x0]["x0"], dtype=float)
            except KeyError:
                raise ConfigError(
                    f"unknown initial-state preset {self.x0!r}; "
                    f"known: {sorted(brockett.PRESETS)}") from None
        return np.asarray(self.x0, dtype=float)

    def resolved_outdir(self) -> str:
        root = os.environ.get(ENV_OUTPUT_ROOT)
        return os.path.join(root, self.outdir) if root else self.outdir

    def public_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["p"] = self.resolved_p()
        d["x0"] = self.resolved_x0().tolist()
        d["kappas"] = list(self.kappas) if self.kappas else None
        d["cf_eps"] = list(self.cf_eps)
        return d


_TUPLE_FLOAT_KEYS = {"cf_eps"}
_TUPLE_INT_KEYS = {"kappas"}
_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    if key in _TUPLE_INT_KEYS:
        return tuple(int(v) for v in raw.split(",")) if raw else None
    if key in _TUPLE_FLOAT_KEYS:
        return tuple(float(v) for v in raw.split(","))
    if key == "x0":
        if any(c.isalpha() for c in raw):
            return raw
        return tuple(float(v) for v in raw.split(","))
    if key == "p":
        return None if raw.lower() in ("", "none") else float(raw)
    default = getattr(RunConfig(), key)
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def load_config_file(path: str) -> Dict[str, object]:
    """Parse a flat ``key = value`` config file (``#`` comments allowed)."""
    out: Dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            out[key] = _parse_value(key, raw)
    return out


def _build(config: RunConfig):
    if config.system != "brockett10":
        raise ConfigError(f"unknown system {config.system!r}; "
                          "known: ('brockett10',)")
    if config.mode not in ("classical", "sampled", "both"):
        raise ConfigError(f"bad mode {config.mode!r}")
    p = config.resolved_p()
    sys_ = brockett.brockett_system()
    lyap = brockett.brockett_lyapunov(p)
    try:
        law = brockett.brockett_law(p, config.gamma, config.eps,
                                    kappas=config.kappas, mode=config.law_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sys_, lyap, law, p


# --- convergence-rate estimation ---------------------------------------------

def fit_exponential(t, y) -> Tuple[float, float]:
    """Least-squares slope and R^2 of ``log y`` against ``t``."""
    t = np.asarray(t, dtype=float)
    ly = np.log(np.asarray(y, dtype=float))
    a = np.vstack([t, np.ones_like(t)]).T
    coef, res, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return float(coef[0]), 1.0
    ss_res = float(res[0]) if res.size else 0.0
    return float(coef[0]), 1.0 - ss_res / ss_tot


def fit_powerlaw(t, y) -> float:
    """Slope of ``log y`` against ``log t`` (drops nonpositive times)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = t > 0
    return float(np.polyfit(np.log(t[keep]), np.log(y[keep]), 1)[0])


def _fit_window(norms: np.ndarray, lo_frac: float, hi_frac: float,
                floor: float) -> np.ndarray:
    """Indices of the middle band of windows whose norm is above the floor."""
    idx = np.flatnonzero(norms > floor)
    if idx.size < 3:
        return idx
    lo = int(math.floor(lo_frac * idx.size))
    hi = max(lo + 2, int(math.ceil(hi_frac * idx.size)))
    return idx[lo:hi]


def _run_summary(traj: Trajectory, config: RunConfig) -> dict:
    nw = traj.norms[::traj.substeps]
    tw = traj.t[::traj.substeps]
    initial = float(traj.norms[0])
    terminal = float(traj.norms[-1])
    vb = traj.v[::traj.substeps]
    dec = np.diff(vb)
    active = nw[:dec.size] > 1e-8
    monotone = bool(np.all(dec[active] < 0)) if dec.size else True
    fit_idx = _fit_window(nw, config.fit_lo, config.fit_hi, config.norm_floor)
    if fit_idx.size >= 3:
        slope, r2 = fit_exponential(tw[fit_idx], nw[fit_idx])
        poly = fit_powerlaw(tw[fit_idx], nw[fit_idx])
        fit_window = [int(fit_idx[0]), int(fit_idx[-1])]
    else:
        slope = r2 = poly = None
        fit_window = []
    return {
        "mode": traj.mode,
        "initial_norm": initial,
        "terminal_norm": terminal,
        "window_count": traj.n_windows,
        "monotone_decrease": monotone,
        "exp_slope": slope,
        "exp_r2": r2,
        "fit_window": fit_window,
        "poly_slope": poly,
        "max_abs_r_hat": float(np.max(np.abs(traj.windows.r_hat)))
        if traj.n_windows else 0.0,
        "diverged": traj.diverged,
        "converged": bool(not traj.diverged
                          and terminal <= config.conv_threshold * max(initial, 1e-300)),
    }


def _write_summary(outdir: str, payload: dict) -> None:
    with open(os.path.join(outdir, "summary.json"), "w", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _exit_code(run_sections: Sequence[dict]) -> int:
    if any(r["diverged"] for r in run_sections):
        return 2
    if all(r["converged"] for r in run_sections):
        return 0
    return 3


def _integrate_and_write(config: RunConfig, modes: Sequence[str]):
    """Integrate each mode, write its trajectory and window artifacts, and
    return ``(trajectories, summary sections, output directory)``."""
    sys_, lyap, law, _ = _build(config)
    x0 = config.resolved_x0()
    trajs: Dict[str, Trajectory] = {}
    for mode in modes:
        integrate = integrate_classical if mode == "classical" else integrate_sampled
        trajs[mode] = integrate(sys_, law, x0, config.T, config.substeps, lyap)
    outdir = config.resolved_outdir()
    os.makedirs(outdir, exist_ok=True)
    sections = {}
    for mode, traj in trajs.items():
        write_trajectory_csv(traj, os.path.join(outdir, f"trajectory_{mode}.csv"))
        write_windows_json(traj, os.path.join(outdir, f"windows_{mode}.json"))
        sections[mode] = _run_summary(traj, config)
    return trajs, sections, outdir


def run(config: RunConfig) -> Tuple[dict, int]:
    """Execute the configured integration(s) and write all artifacts."""
    t_start = time.perf_counter()
    modes = ("classical", "sampled") if config.mode == "both" else (config.mode,)
    _, sections, outdir = _integrate_and_write(config, modes)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "run",
        "config": config.public_dict(),
        "runs": sections,
        "wall_clock_s": time.perf_counter() - t_start,
    }
    _write_summary(outdir, payload)
    return payload, _exit_code(list(sections.values()))


def compare(config: RunConfig) -> Tuple[dict, int]:
    """Classical and sampled runs from one seed plus their norm gap table."""
    t_start = time.perf_counter()
    config = dataclasses.replace(config, mode="both")
    trajs, sections, outdir = _integrate_and_write(config,
                                                   ("classical", "sampled"))
    tc, ts = trajs["classical"], trajs["sampled"]
    k = min(tc.t.shape[0], ts.t.shape[0])
    diff = np.abs(tc.norms[:k] - ts.norms[:k])
    table = np.column_stack((tc.t[:k], tc.norms[:k], ts.norms[:k], diff))
    with open(os.path.join(outdir, "compare.csv"), "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",",
                   header="t,norm_classical,norm_sampled,abs_diff", comments="")
    stride = config.substeps
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "compare",
        "config": config.public_dict(),
        "runs": sections,
        "compare": {
            "sup_diff_windows": float(np.max(diff[::stride])),
            "sup_diff_all": float(np.max(diff)),
            "terminal_diff": float(diff[-1]),
        },
        "wall_clock_s": time.perf_counter() - t_start,
    }
    _write_summary(outdir, payload)
    return payload, _exit_code(list(sections.values()))


def verify(config: RunConfig) -> Tuple[dict, int]:
    """Run every numerical hypothesis check and aggregate the verdicts."""
    t_start = time.perf_counter()
    sys_, lyap, law, p = _build(config)
    checks: Dict[str, dict] = {}

    # spanning condition of fields plus brackets over a sampled ball
    pts = sample_region(Region.ball(sys_.n, config.span_radius), config.span_n,
                        r_min=0.0, seed=config.seed)
    smin = float("inf")
    ok = True
    for x in np.vstack([np.zeros(sys_.n), pts]):
        good, sv = bracket_generating_check(sys_, x)
        ok = ok and good
        smin = min(smin, sv)
    checks["span"] = {"pass": ok, "min_singular_value": smin,
                      "n_points": config.span_n + 1,
                      "radius": config.span_radius}

    # sampled negativity of the certificate
    rep = negdef_scan(lambda x: brockett.brockett_decrease_rate(p, config.gamma, x),
                      Region.ball(sys_.n, config.negdef_radius),
                      config.negdef_n, seed=config.seed)
    checks["certificate_negdef"] = {"pass": rep.violations == 0,
                                    **rep.to_json_dict()}

    # sampled gain bound against the configured gain
    gb = gain_bound_scan(sys_, law, lyap,
                         Region.ball(sys_.n, config.gain_radius),
                         config.gain_n, seed=config.seed)
    checks["gain_bound"] = {
        "pass": bool(config.gamma < gb.gamma_max and gb.report.violations == 0),
        "ratio_sup": gb.ratio_sup,
        "gamma_max": gb.gamma_max,
        "gamma": config.gamma,
        "beta_violations": gb.report.violations,
    }

    # synthesis margin
    cs = correction_ratio_sup(sys_, lyap, config.gamma,
                              Region.ball(sys_.n, config.c1_radius),
                              config.c1_n, seed=config.seed, law=law)
    checks["synthesis_margin"] = {"pass": bool(cs.sup < 1.0),
                                  "sup": cs.sup, "skipped": cs.skipped}

    # one-step prediction order
    x0_probe = np.zeros(sys_.n)
    x0_probe[4] = 1.0
    x0_probe[0] = 0.5
    probe = prediction_order_probe(sys_, law, x0_probe, config.cf_eps)
    checks["prediction_order"] = {
        "pass": bool(1.3 <= probe.exponent <= 1.8),
        "exponent": probe.exponent,
        "residuals": list(probe.residuals),
        "eps": list(probe.eps_values),
    }

    # oscillator identities over one period
    a = law.assignment
    eps = a.eps
    same_worst = 0.0
    cross_worst = 0.0
    for qa in range(len(a.pairs)):
        same = iterated_integral_coefficient(a, a.pairs[qa], a.pairs[qa],
                                             config.quad_steps)
        same_worst = max(same_worst, abs(same + 2.0 * eps) / (2.0 * eps))
        for qb in range(len(a.pairs)):
            if qa == qb:
                continue
            cross = iterated_integral_coefficient(a, a.pairs[qa], a.pairs[qb],
                                                  config.quad_steps)
            scale = a.amplitude(qa) * a.amplitude(qb) * eps * eps
            cross_worst = max(cross_worst, abs(cross) / scale)
    osc = {"same_pair_rel_err": same_worst, "cross_rel_coupling": cross_worst}
    osc_pass = same_worst <= 1e-6 and cross_worst <= 1e-8
    if config.resonance_witness:
        # deliberately resonant pair of multipliers; must be detected
        witness = oscillator_coupling(3, 3, eps, config.quad_steps)
        osc["witness_coupling"] = witness
        osc_pass = osc_pass and abs(witness) <= 1e-8 * eps
    checks["oscillators"] = {"pass": bool(osc_pass), **osc}

    all_pass = all(c["pass"] for c in checks.values())
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": config.public_dict(),
        "checks": checks,
        "all_pass": all_pass,
        "wall_clock_s": time.perf_counter() - t_start,
    }
    outdir = config.resolved_outdir()
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "verify.json"), "w", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload, 0 if all_pass else 2


# --- argument handling --------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        if f.name == "resonance_witness":
            sp.add_argument("--resonance-witness", action="store_true",
                            default=None, help=argparse.SUPPRESS)
            continue
        sp.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                        default=None, metavar="V")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: Dict[str, object] = {}
    if args.config:
        values.update(load_config_file(args.config))
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is None:
            continue
        values[f.name] = (_parse_value(f.name, raw)
                          if isinstance(raw, str) else raw)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscstab",
        description="oscillatory feedback stabilization: simulate, compare "
                    "and verify")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "integrate the closed loop and write artifacts"),
                        ("compare", "classical vs sampled solutions"),
                        ("verify", "numerical hypothesis checks")):
        _add_common(sub.add_parser(name, help=help_))
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        payload, code = {"run": run, "compare": compare,
                         "verify": verify}[args.command](config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    if args.command == "verify":
        for name, c in payload["checks"].items():
            print(f"{'PASS' if c['pass'] else 'FAIL'} {name}: "
                  + ", ".join(f"{k}={v}" for k, v in c.items() if k != "pass"))
        print("verification:", "PASS" if payload["all_pass"] else "FAIL")
    else:
        for mode, s in payload["runs"].items():
            slope = s["exp_slope"]
            print(f"{mode}: terminal_norm={s['terminal_norm']:.6g} "
                  f"monotone={s['monotone_decrease']} "
                  f"slope={slope if slope is None else format(slope, '.4g')} "
                  f"converged={s['converged']}")
        if "compare" in payload:
            print(f"sup |norm gap| at windows: "
                  f"{payload['compare']['sup_diff_windows']:.6g}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
