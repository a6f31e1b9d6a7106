"""oscstab benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 bench/run.py --workload fig1-compare --seed 0 --seconds 25 --trace 0

Runs from a source checkout (``src/oscstab`` next to ``bench/``).  Set-up is
sampled in fresh processes; the timed jobs run in one more fresh process, a
single closed-loop caller with BLAS pinned to one thread.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  Human-readable lines come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1-compare", "verify-sweep", "synth-control")
SETUP_PROBES = 4          # extra fresh processes sampled for setup_s
PROBE_TIMEOUT_S = 60
MAIN_SLACK_S = 100


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("OSCSTAB_OUT", None)
    return env


def _worker(args, workdir: str, probe: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if probe:
        cmd.append("--probe")
    env = _env()
    spawned = perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it, never below
    the median: returns (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    rank = max(n - 10, n // 2 + 1)            # 1-based
    return s[rank - 1], 100.0 * rank / n, n - rank


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numba_importable(env: dict) -> bool:
    proc = subprocess.run([sys.executable, "-c", "import numba"], env=env,
                          capture_output=True, timeout=60)
    return proc.returncode == 0


def _predictions() -> dict:
    with open(os.path.join(HERE, "predictions.json")) as fh:
        return json.load(fh)


def end_to_end(main: dict, samples: list) -> tuple:
    """Job and op times are rescaled to the reference machine speed; the
    measured medians are printed beside them."""
    jobs = [j for j in main["jobs"] if not j["traced"]]
    ok_ms = [1e3 * o[1] * j["speed_wall"] for j in jobs for o in j["ops"]
             if o[2] is None and o[3] is None]
    if not ok_ms:       # every op failed: still print a result that says so
        ok_ms = [1e3 * o[1] * j["speed_wall"] for j in jobs for o in j["ops"]]
    value, pct, beyond = tail(ok_ms)
    med = statistics.median
    metrics = {
        "setup_s": (med(s["setup_s"] for s in samples), "s"),
        "job_s": (med(j["wall_s"] * j["speed_wall"] for j in jobs), "s"),
        "job_cpu_s": (med(j["cpu_s"] * j["speed_cpu"] for j in jobs), "s"),
        "op_ms.p50": (med(ok_ms), "ms"),
        "op_ms.tail": (value, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"{len(samples)} processes; measured median "
                   f"{med(s['setup_measured_s'] for s in samples):.4g} s",
        "job_s": f"{len(jobs)} jobs; measured {med(j['wall_s'] for j in jobs):.4g} s"
                 f" at speed x{med(j['speed_wall'] for j in jobs):.3f}",
        "job_cpu_s": f"measured {med(j['cpu_s'] for j in jobs):.4g} s",
        "op_ms.tail": f"p{pct:.1f}, {beyond} samples beyond, {len(ok_ms)} ops",
    }
    return metrics, notes


def per_layer(args, main: dict, samples: list) -> dict:
    """Counts from one traced job (they must agree across traced jobs);
    times are medians over traced jobs, rescaled like the job times."""
    tr = main["trace"]
    per_job = tr["per_job"]
    counts = {k for k, v in per_job[0].items() if isinstance(v, int)}
    for k in counts:
        if len({pj[k] for pj in per_job}) != 1:
            raise SystemExit(f"trace count {k} differs between traced jobs: "
                             f"{[pj[k] for pj in per_job]}")
    jobs = main["jobs"]
    untraced = statistics.median(j["wall_s"] * j["speed_wall"]
                                 for j in jobs if not j["traced"])
    traced = statistics.median(j["wall_s"] * j["speed_wall"]
                               for j in jobs if j["traced"])
    speeds = [j["speed_wall"] for j in jobs if j["traced"]]
    bytes_written = [j["bytes_written"] for j in jobs if j["traced"]][0]
    units = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    metrics = {}
    for name, unit in units.items():
        if name == "setup.import_s":
            value = statistics.median(s["import_s"] for s in samples)
        elif name == "setup.build_s":
            value = statistics.median(s["build_s"] for s in samples)
        elif name == "fastpath.available":
            value = int(main["fastpath_available"]
                        or per_job[0]["fastpath.calls"] > 0)
        elif name == "cli.bytes_written":
            value = bytes_written
        elif name == "trace.overhead_frac":
            value = traced / untraced - 1.0
        elif name in counts:
            value = per_job[0][name]
        else:       # a time (s, us) or a rate (1/s)
            value = statistics.median(
                pj[name] / sp if unit == "1/s" else pj[name] * sp
                for pj, sp in zip(per_job, speeds))
        metrics[name] = (value, unit)
    # a wrapper bound at the wrong name reads 0 silently: fail instead
    from tracing import METRIC_LAYER
    present = set(tr["present"])
    zero = [m for m in _predictions()["nonzero"][args.workload]
            if METRIC_LAYER[m] in present and metrics[m][0] == 0]
    if zero:
        raise SystemExit(f"counts predicted nonzero on {args.workload} "
                         f"read zero: {zero}")
    return metrics


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "oscstab", "__init__.py")):
        print(f"error: no oscstab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    out = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out, f"work-{args.workload}-{os.getpid()}")
    try:
        samples = [_worker(args, workdir, True, PROBE_TIMEOUT_S)["setup"]
                   for _ in range(SETUP_PROBES)]
        main_res = _worker(args, workdir, False, args.seconds + MAIN_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples.append(main_res["setup"])

    all_ops = [o for j in main_res["jobs"] for o in j["ops"]]
    failed = [o for o in all_ops if o[2] is not None or o[3] is not None]
    kinds = dict(Counter(f"{o[0]}: {o[2] or 'check failed'}" for o in failed))
    env = _env()
    facts = {
        "python": main_res["versions"]["python"],
        "numpy": main_res["versions"]["numpy"],
        "scipy": main_res["versions"]["scipy"],
        "numba_importable": _numba_importable(env),
        "gcc": shutil.which("gcc"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "integration_path": main_res["path"],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}: {json.dumps(main_res['describe'])}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()
                                  if k != "integration_path"))
    p = main_res["path"]
    print(f"integration path: {p['path']} ({p['rhs_calls']} feedback_eval "
          f"calls in {p['steps']} steps of one probe window)")

    if args.trace:
        metrics = per_layer(args, main_res, samples)
        notes = {}
        print(f"trace: {main_res['trace']['spans']} spans in "
              f"{len(main_res['trace']['per_job'])} traced jobs, written to "
              f"{main_res['trace']['span_file']}")
    else:
        metrics, notes = end_to_end(main_res, samples)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {len(failed)}/{len(all_ops)} = "
          f"{len(failed) / len(all_ops):.4f}"
          + (f"  {json.dumps(kinds)}" if kinds else ""))
    chk = main_res["checks"]
    correct = not chk["mismatches"]
    print(f"checks: {chk['checked']} outputs checked, "
          f"{len(chk['mismatches'])} mismatches; max deviations "
          + json.dumps({k: float(f"{v:.3g}") for k, v in chk["max_dev"].items()}))
    for m in chk["mismatches"]:
        print(f"  MISMATCH {m}")

    os.makedirs(out, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "facts": facts,
              "describe": main_res["describe"], "notes": notes,
              "failures": kinds, "checks": chk,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(os.path.join(out, f"report-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": len(all_ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
