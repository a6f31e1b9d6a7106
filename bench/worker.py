"""One workload in one fresh process: set-up, timed jobs, checks, trace.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--probe`` stops after the first completed op (a set-up sample).  The
process is a single closed-loop caller: it starts no threads or processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from statistics import fmean, median
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Dual:
    """Object arithmetic for the speed loop, like the package's dual numbers."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val, self.der = val, der

    def __mul__(self, o):
        return _Dual(self.val * o.val, self.der * o.val + self.val * o.der)

    def __add__(self, o):
        return _Dual(self.val + o.val, self.der + o.der)


class SpeedSampler:
    """Samples of the machine's current speed, taken while jobs run.

    On a shared machine the speed of this process swings by up to 2x within
    seconds, in CPU time as much as in wall time.  Every ``PERIOD_S`` a
    SIGALRM handler times a fixed loop of interpreter-bound work (small numpy
    products, a float loop and object arithmetic, like the package's own
    inner loops).  A job's time, less the handler's own time, is rescaled by
    ``REF_S`` over the mean loop time seen during the job: seconds at the
    reference speed, at which the loop takes ``REF_S``.  No thread or process
    is started.
    """

    PERIOD_S = 0.1
    REF_S = 4e-4         # the loop on the reference machine when quiet

    def __init__(self):
        import numpy as np
        self._a = -0.5 * np.eye(10)
        self._x = np.ones(10)
        self.wall, self.cpu = [], []          # loop times, one per sample
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, *_signal_args) -> None:
        c0, w0 = process_time(), perf_counter()
        a, x, h = self._a, self._x, 1e-3
        for _ in range(40):
            k1 = a @ x
            k2 = a @ (x + 0.5 * h * k1)
            x = x + h * k2
        acc = 0.0
        for i in range(1500):
            acc += i * 0.5
        d, e = _Dual(1.0, 0.5), _Dual(0.3, 0.1)
        for _ in range(150):
            d = d * e + d
            d = _Dual(0.5 * d.val, 0.5 * d.der)
        w1, c1 = perf_counter(), process_time()
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)
        self.spent_wall += perf_counter() - w0
        self.spent_cpu += process_time() - c0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    t_main = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    # set-up runs under the speed sampler too (numpy first: the loop uses it)
    speed = SpeedSampler()
    with speed:
        import oscstab
        from oscstab import brockett, cli, controller, integrator  # noqa: F401
        from oscstab import lyapunov, vecfield  # noqa: F401
        t_import = perf_counter()
        src = os.path.join(ROOT, "src", "oscstab")
        if os.path.dirname(os.path.abspath(oscstab.__file__)) != src:
            print(f"oscstab imported from {oscstab.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        import workloads

        os.makedirs(args.workdir, exist_ok=True)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        t_build = perf_counter()
        wl.warmup()
        t_first = perf_counter()
    speed.sample()
    rescale = SpeedSampler.REF_S / fmean(speed.wall)
    setup = {"setup_s": (t_first - args.spawned_at - speed.spent_wall) * rescale,
             "import_s": (t_import - t_main) * rescale,
             "build_s": (t_build - t_import) * rescale,
             "setup_measured_s": t_first - args.spawned_at}
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0

    # timed jobs: untraced only, or alternating untraced / traced
    jobs = []
    tracer = tracing.Tracer() if args.trace else None
    traced_spans = []
    log = workloads.CheckLog()
    t_measure = perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            lo = len(tracer)
            tracer.install()
        speed.sample()
        k0, sw0, sc0 = len(speed.wall), speed.spent_wall, speed.spent_cpu
        with speed:
            c0, w0 = process_time(), perf_counter()
            ops = wl.job()
            w1, c1 = perf_counter(), process_time()
        wall = (w1 - w0) - (speed.spent_wall - sw0)
        cpu = (c1 - c0) - (speed.spent_cpu - sc0)
        speed.sample()
        if traced:
            tracer.restore()
            traced_spans.append((len(jobs), lo, len(tracer), w0))
        seen = slice(k0 - 1, len(speed.wall))
        job = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
               "bytes_written": wl.bytes_written,
               "speed_wall": SpeedSampler.REF_S / fmean(speed.wall[seen]),
               "speed_cpu": SpeedSampler.REF_S / fmean(speed.cpu[seen])}
        wl.check(ops, log)
        job["ops"] = [(op.kind, op.wall_s, op.error, op.failed_check)
                      for op in ops]
        jobs.append(job)
        elapsed = perf_counter() - t_measure
        need_traced = tracer is not None and not traced_spans
        typical = median([j["wall_s"] for j in jobs])
        if not need_traced and elapsed + 0.5 * typical >= args.seconds:
            break

    # integration path: feedback_eval calls inside one probe integration
    probe_tracer = tracing.Tracer()
    probe_tracer.install()
    try:
        wl.integration_probe()
    finally:
        probe_tracer.restore()
    probe = tracing.aggregate(probe_tracer, 0, len(probe_tracer))
    steps, rhs = probe["integrator.steps"], probe["integrator.generic_rhs_calls"]
    path = ("generic" if rhs == 4 * steps else
            "compiled" if rhs == 0 else "mixed")

    import numpy
    import scipy
    result = {
        "setup": setup,
        "describe": wl.describe(),
        "jobs": jobs,
        "checks": {"checked": log.checked, "mismatches": log.mismatches,
                   "max_dev": log.max_dev},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "path": {"path": path, "steps": steps, "rhs_calls": rhs,
                 "fastpath_calls": probe["fastpath.calls"]},
        "fastpath_available": bool(getattr(sys.modules.get("oscstab._fastpath"),
                                           "HAVE_NUMBA", False)),
    }
    if tracer is not None:
        per_job = [tracing.aggregate(tracer, lo, hi)
                   for _j, lo, hi, _t0 in traced_spans]
        result["trace"] = {"per_job": per_job,
                           "present": sorted(tracer.present),
                           "spans": len(tracer)}
        span_path = os.path.join(os.path.dirname(args.workdir),
                                 f"spans-{args.workload}.tsv")
        tracer.write_tsv(span_path, traced_spans)
        result["trace"]["span_file"] = os.path.relpath(span_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
