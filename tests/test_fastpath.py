"""Build, cache and fallback behaviour of the compiled library: the
trajectory kernel and the CSV formatter.

Each case runs in a fresh interpreter with its own ``XDG_CACHE_HOME`` and
``PATH``, so the kernel state of this process and the user's cache stay out
of it.  Compilers are observed through a wrapper script named ``cc`` that
logs each call before handing over to the real compiler (or failing).
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import oscstab
from oscstab import _fastpath, integrator
from oscstab.cli import RunConfig, compare

from conftest import needs_cc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oscstab.__file__)))

# one classical and one sampled window of the fig1-left setup; prints the
# solver paths, the RuntimeWarnings raised and whether a compiler ran by then
PROBE = textwrap.dedent("""
    import json, os, sys, warnings
    import numpy as np
    import oscstab, oscstab.cli
    from oscstab import brockett as bk
    log = os.environ.get("CC_LOG", "")
    compiled_at_import = bool(log) and os.path.exists(log)
    sys_ = bk.brockett_system()
    law = bk.brockett_law(1.0, 0.5, 0.1)
    x0 = np.array(bk.PRESETS["fig1-left"]["x0"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        paths = [f(sys_, law, x0, T=0.1, substeps=400).solver_path
                 for f in (oscstab.integrate_classical, oscstab.integrate_sampled)]
    print(json.dumps({
        "compiled_at_import": compiled_at_import,
        "paths": paths,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }))
""")


def _wrapper(bindir, log, target: str) -> None:
    """A ``cc`` that logs its call, then runs ``target`` (a shell command)."""
    bindir.mkdir(exist_ok=True)
    cc = bindir / "cc"
    cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\n{target}\n')
    cc.chmod(0o755)


def _run(args, tmp_path, path_env: str, log=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    env["PATH"] = path_env
    if log is not None:
        env["CC_LOG"] = str(log)
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


def _probe(tmp_path, path_env: str, log=None) -> dict:
    proc = _run(["-c", PROBE], tmp_path, path_env, log)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _calls(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


@needs_cc
def test_build_on_first_use_then_cached(tmp_path):
    log = tmp_path / "cc.log"
    real = _fastpath.find_compiler()
    _wrapper(tmp_path / "bin", log, f'exec "{real}" "$@"')
    path_env = str(tmp_path / "bin") + os.pathsep + os.environ.get("PATH", "")
    lib = tmp_path / "cache" / "oscstab" / _fastpath.library_name()

    first = _probe(tmp_path, path_env, log)
    assert not first["compiled_at_import"]
    assert first["paths"] == ["compiled", "compiled"]
    assert first["warnings"] == []
    assert _calls(log) == 1 and lib.exists()
    assert os.listdir(lib.parent) == [lib.name]   # no temporary left behind

    assert _probe(tmp_path, path_env, log)["paths"] == ["compiled", "compiled"]
    assert _calls(log) == 1                         # loaded from the cache

    shutil.rmtree(tmp_path / "cache")
    assert _probe(tmp_path, path_env, log)["paths"] == ["compiled", "compiled"]
    assert _calls(log) == 2 and lib.exists()        # rebuilt


def _declined(*args):
    raise _fastpath.KernelUnavailable("declined for the test")


@pytest.mark.parametrize("compiler", ["missing", "broken"])
def test_fallback_is_generic_and_warned_once(tmp_path, monkeypatch, compiler):
    bindir = tmp_path / "bin"
    bindir.mkdir()
    log = tmp_path / "cc.log"
    if compiler == "broken":
        _wrapper(bindir, log, 'echo "cc1: error: no can do" >&2\nexit 1')
        reason = "build failed: "
    else:
        reason = "no compiler: none of cc, gcc on PATH"
    out = _probe(tmp_path, str(bindir), log)
    assert out["paths"][0] == out["paths"][1]
    assert out["paths"][0].startswith(f"generic ({reason}")
    assert len(out["warnings"]) == 1
    assert out["warnings"][0].startswith("RuntimeWarning: ")
    assert reason in out["warnings"][0]
    assert _calls(log) == (1 if compiler == "broken" else 0)
    if compiler == "broken":
        assert "exited with 1: cc1: error: no can do" in out["paths"][0]

    # the CLI shows the one warning on stderr and still completes the run;
    # the CSV writer reuses the kernel's load outcome: no second build, no
    # second warning
    cli = _run(["-c", "from oscstab.cli import main; raise SystemExit(main())",
                "compare", "--x0", "fig1-left", "--T", "0.1",
                "--outdir", str(tmp_path / "out")], tmp_path, str(bindir))
    assert cli.returncode == 3, cli.stderr         # one window: not converged
    assert cli.stderr.count("RuntimeWarning") == 1
    assert reason in cli.stderr
    assert _calls(log) == (2 if compiler == "broken" else 0)
    runs = json.loads((tmp_path / "out" / "summary.json").read_text())["runs"]
    for mode in ("classical", "sampled"):
        assert runs[mode]["csv_writer"].startswith(f"python ({reason}")
        assert runs[mode]["csv_writer"][len("python"):] == \
            runs[mode]["solver_path"][len("generic"):]

    if _fastpath.find_compiler() is not None:
        # the same config, integrated by the generic stepper as above but
        # written by the compiled formatter, gives the same bytes
        monkeypatch.setattr(_fastpath, "brockett_trajectory", _declined)
        monkeypatch.setattr(integrator, "_fallback_warned", True)
        payload, _ = compare(RunConfig(x0="fig1-left", T=0.1,
                                       outdir=str(tmp_path / "ref")))
        for mode in ("classical", "sampled"):
            assert payload["runs"][mode]["solver_path"].startswith("generic (")
            assert payload["runs"][mode]["csv_writer"] == "compiled"
        for name in ("trajectory_classical.csv", "trajectory_sampled.csv",
                     "compare.csv"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name


@needs_cc
def test_unwritable_cache_builds_per_process(tmp_path, monkeypatch):
    (tmp_path / "cache").write_text("a file where the cache directory goes")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    out = _probe(tmp_path, os.environ.get("PATH", ""))
    assert out["paths"] == ["compiled", "compiled"]
    assert out["warnings"] == []
    assert os.listdir(tmpdir) == []                 # temporary build removed
