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

import numpy as np
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


def test_make_reference_reproduces_the_stored_reference(tmp_path, monkeypatch):
    # the script that made the fig1-compare oracle still runs, on the generic
    # stepper, and its states match the committed ones to the benchmark's
    # tolerance (the first four initial-state variants, to keep it short)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    mod = _load("make_reference")
    monkeypatch.setattr(mod, "HERE", str(tmp_path))
    monkeypatch.setattr(mod, "FIG1_VARIANTS", 4)
    mod.main()
    with open(os.path.join(tmp_path, "reference_fig1.json")) as fh:
        made = json.load(fh)
    with open(os.path.join(BENCH, "reference_fig1.json")) as fh:
        stored = json.load(fh)
    assert sorted(made["variants"]) == ["0", "1", "2", "3"]
    for k, entry in made["variants"].items():
        want = stored["variants"][k]
        assert entry["x0"] == want["x0"]
        for mode in ("classical", "sampled"):
            assert np.allclose(entry[mode], want[mode], rtol=0.0,
                               atol=workloads.FIG1_ATOL)
