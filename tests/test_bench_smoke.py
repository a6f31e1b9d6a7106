"""Smoke run of every benchmark workload: one traced job each.

The benchmark under ``bench/`` calls into the package through module
attributes and checks its outputs against independent oracles; a change that
renames what it binds or breaks what it checks shows up here first.  Only
``bench/`` files are read.
"""

import importlib.util
import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _load(name: str):
    """Import ``bench/<name>.py`` as ``bench_<name>``."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, os.path.join(BENCH, f"{name}.py"))
        mod = importlib.util.module_from_spec(spec)
        sys.modules[key] = mod       # dataclasses look their module up here
        spec.loader.exec_module(mod)
    return sys.modules[key]


workloads = _load("workloads")
tracing = _load("tracing")

with open(os.path.join(BENCH, "predictions.json")) as fh:
    NONZERO = json.load(fh)["nonzero"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_job_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    wl.warmup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = wl.job()
    finally:
        tracer.restore()
    log = workloads.CheckLog()
    wl.check(ops, log)
    failed = [(op.kind, op.error, op.failed_check) for op in ops
              if op.error is not None or op.failed_check is not None]
    assert ops and not failed, failed
    assert log.checked == len(ops)

    # the guard of bench/run.py: a count predicted nonzero whose layer is
    # bound must not read zero
    counts = tracing.aggregate(tracer, 0, len(tracer))
    counts["cli.bytes_written"] = wl.bytes_written
    zero = [m for m in NONZERO[name]
            if tracing.METRIC_LAYER[m] in tracer.present and counts[m] == 0]
    assert not zero, zero
