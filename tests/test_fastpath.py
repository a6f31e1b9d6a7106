"""Build, cache and fallback behaviour of the compiled library: the
trajectory kernel and the CSV formatter.

Each case runs in a fresh interpreter with its own ``XDG_CACHE_HOME`` and
``PATH``, so the kernel state of this process and the user's cache stay out
of it.  Compilers are observed through a wrapper script named ``cc`` that
logs each call before handing over to the real compiler (or failing).  The
last case builds the library's source into a program under AddressSanitizer
and UndefinedBehaviorSanitizer instead.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oscstab
from oscstab import _fastpath, integrator
from oscstab import brockett as bk
from oscstab.cli import RunConfig, compare
from oscstab.controller import oscillator_waves

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


# the widest "%.17g" text of all, on the C library's path
WIDEST = -2.2250738585072014e-308
# every layout of the formatter: e-notation from either path, 0.000ddd,
# ddd.ddd, 17-digit integers, subnormals, nan, signed zeros and infinities
LAYOUTS = (-1.2345678901234567e-05, 1e-05, 1.0000000000000001e-05,
           -9.9999999999999998e-17, -0.00012345678901234567, 0.1,
           -0.99999999999999989, 1.5, -123456.78901234567,
           -12345678901234568.0, -1e16, -99999999999999984.0, 1e17,
           -1.7976931348623157e308, -5e-324, -2.2250738585072009e-308,
           float("nan"), -0.0, 0.0, float("-inf"))
SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
WARNINGS = ("-Wall", "-Wextra", "-Werror")


@needs_cc
def test_library_builds_without_warnings(tmp_path):
    # the library's own build with the common warnings as errors: an unused
    # table or variable left behind by an edit of the source fails here
    build = subprocess.run(
        [_fastpath.find_compiler(), *_fastpath.CFLAGS, *WARNINGS, "-x", "c",
         "-", "-o", str(tmp_path / "library.so"), *_fastpath.LDLIBS],
        input=_fastpath.SOURCE, capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr


# formats each block from a table and into a buffer of exactly the sizes
# csv_formatter gives them (heap memory, so reads and writes past either
# end are caught), then prints one short trajectory of each mode, then the
# quadrature channels on the smallest grid coupling_matrix takes and each
# one's running integral, in buffers of the sizes the wrapper allocates
DRIVER = r"""
#include <stdlib.h>

static const uint64_t VALUES[] = {%(values)s};
static const int64_t BLOCKS[][3] = {%(blocks)s};   /* first, rows, cols */

int main(void)
{
    for (size_t b = 0; b < sizeof BLOCKS / sizeof BLOCKS[0]; ++b) {
        const int64_t rows = BLOCKS[b][1], cols = BLOCKS[b][2];
        double *table = malloc(rows * cols * sizeof *table);
        memcpy(table, VALUES + BLOCKS[b][0], rows * cols * sizeof *table);
        char *buf = malloc(rows * (cols * %(field)d + 1) + %(slack)d);
        fwrite(buf, 1, format_csv(table, rows, cols, buf), stdout);
        free(buf);
        free(table);
    }
    const double x0[10] = {%(x0)s}, gamma_amp[6] = {%(gamma_amp)s};
    const int64_t kappas[6] = {%(kappas)s}, K = %(J)d * %(substeps)d + 1;
    for (int sampled = 0; sampled < 2; ++sampled) {
        double *xs = malloc(K * 10 * sizeof *xs);
        const int64_t n = brockett_trajectory(x0, %(J)d, %(substeps)d, %(h)s,
                                              1.0, kappas, %(omega)s,
                                              gamma_amp, sampled, xs);
        printf("trajectory %%lld\n", (long long)n);
        for (int64_t i = 0; i < n * 10; ++i) printf("%%a\n", xs[i]);
        free(xs);
    }
    const int64_t qn = %(quad_n)d, m = 6;
    double *s = malloc(qn * sizeof *s), *out = malloc(qn * sizeof *out);
    double *ch = malloc(2 * m * qn * sizeof *ch);
    for (int64_t i = 0; i < qn; ++i) s[i] = i * %(quad_h)s;
    const double kw[6] = {%(kw)s}, amp[6] = {%(amp)s};
    oscillator_channels(s, qn, m, kw, amp, ch, ch + m * qn);
    printf("quadrature\n");
    for (int64_t r = 0; r < 2 * m; ++r) {
        running_simpson(ch + r * qn, qn, %(quad_h)s, out);
        for (int64_t i = 0; i < qn; ++i)
            printf("%%a %%a\n", ch[r * qn + i], out[i]);
    }
    free(ch);
    free(out);
    free(s);
    return 0;
}
"""


def _sanitized(cc: str, source: str, exe, tmp_path):
    flags = [f for f in _fastpath.CFLAGS if f != "-shared"]
    return subprocess.run(
        [cc, *flags, *SANITIZE, "-x", "c", "-", "-o", str(exe),
         *_fastpath.LDLIBS],
        input=source, capture_output=True, text=True, cwd=tmp_path,
        timeout=300)


@needs_cc
def test_library_under_address_and_undefined_sanitizers(tmp_path):
    cc = _fastpath.find_compiler()
    probe = _sanitized(cc, "int main(void) { return 0; }\n",
                       tmp_path / "probe", tmp_path)
    if probe.returncode != 0 or subprocess.run(
            [str(tmp_path / "probe")], capture_output=True).returncode != 0:
        lines = probe.stderr.strip().splitlines()
        pytest.skip("sanitizer runtime cannot be linked"
                    + (f": {lines[-1]}" if lines else ""))

    # per column count, blocks of one row with each layout last after the
    # widest texts, so its fixed-length copies run furthest towards the
    # buffer's end, and blocks of two rows of each layout alone
    groups = [[[WIDEST] * (cols - 1) + [v]] for cols in range(1, 14)
              for v in LAYOUTS]
    groups += [[[v] * cols] * 2 for cols in range(1, 14) for v in LAYOUTS]
    blocks, values = [], []
    for g in groups:
        blocks.append((len(values), len(g), len(g[0])))
        values += [v for row in g for v in row]

    law = bk.brockett_law(1.0, 0.5, 0.1)
    a = law.assignment
    gamma_amp = [law.gamma * a.amplitude(q) for q in range(len(a.pairs))]
    x0 = bk.PRESETS["fig1-left"]["x0"]
    J, substeps, h = 2, 5, 0.1 / 5
    # the numpy quadrature path on the grid the driver builds
    steps = integrator.MIN_QUAD_STEPS
    s = np.arange(steps + 1) * (a.eps / steps)
    kw = np.asarray(a.kappas) * a.omega
    amps = np.array([a.amplitude(q) for q in range(len(a.pairs))])
    channels = np.concatenate(oscillator_waves(a.kappas, a.omega, s)) \
        * np.concatenate([amps, amps])[:, None]
    source = _fastpath.SOURCE + DRIVER % {
        "values": ", ".join(
            f"{b}ULL" for b in np.array(values).view(np.uint64)),
        "blocks": ", ".join("{%d, %d, %d}" % b for b in blocks),
        "field": _fastpath.CSV_FIELD_BYTES, "slack": _fastpath.CSV_SLACK_BYTES,
        "x0": ", ".join(float(v).hex() for v in x0),
        "gamma_amp": ", ".join(float(v).hex() for v in gamma_amp),
        "kappas": ", ".join(str(k) for k in a.kappas),
        "J": J, "substeps": substeps, "h": float(h).hex(),
        "omega": float(a.omega).hex(), "quad_n": len(s),
        "quad_h": float(s[1]).hex(), "kw": ", ".join(v.hex() for v in kw),
        "amp": ", ".join(v.hex() for v in amps)}
    build = _sanitized(cc, source, tmp_path / "driver", tmp_path)
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="print_stacktrace=1")
    run = subprocess.run([str(tmp_path / "driver")], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]

    rest, quadrature = run.stdout.split("quadrature\n")
    got = np.array([float.fromhex(v) for v in quadrature.split()])
    got = got.reshape(len(channels), -1, 2).transpose(2, 0, 1)
    assert np.array_equal(got[0].view(np.uint64), channels.view(np.uint64))
    running = np.array([integrator._running_simpson(y, s[1])
                        for y in channels])
    assert np.array_equal(got[1].view(np.uint64), running.view(np.uint64))
    csv, *trajectories = rest.split("trajectory ")
    assert len(trajectories) == 2
    assert csv == "".join(",".join("%.17g" % v for v in row) + "\n"
                          for g in groups for row in g)
    for sampled, text in enumerate(trajectories):
        n, *xs = text.split()
        ref, n_ref = _fastpath.brockett_trajectory(law, 1.0, x0, J, substeps,
                                                   h, sampled)
        assert int(n) == n_ref == J * substeps + 1
        np.testing.assert_allclose(
            np.array([float.fromhex(v) for v in xs]).reshape(-1, 10), ref,
            rtol=1e-14, atol=1e-14)
