"""scipy stays off the build path, and off ``verify`` too when the compiled
library loads: the ball scans then take their normal quantiles from it.
Only without the library do they import ``scipy.special``.  ``subprocess``
loads only to compile the library: not on import, and not in a run that
finds it in its cache.

Checked in a fresh interpreter, since the test process has both loaded
already.
"""

import json
import os
import subprocess
import sys
import textwrap

import oscstab
from oscstab import _fastpath

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oscstab.__file__)))
SCIPY_SUBMODULES = ("scipy.stats", "scipy.special", "scipy.integrate")
WATCHED = SCIPY_SUBMODULES + ("subprocess",)

SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    import oscstab
    from oscstab import brockett as bk, cli
    from oscstab.controller import feedback_eval, synthesized_law
    from oscstab.lyapunov import LyapunovSpec
    from oscstab.vecfield import system_from_fields

    def loaded():
        return sorted(m for m in {mods!r} if m in sys.modules)

    out = {{"import": loaded()}}
    bsys, blaw, blyap = (bk.brockett_system(), bk.brockett_law(1.0),
                         bk.brockett_lyapunov(1.0))
    out["build"] = loaded()
    payload, _ = cli.compare(cli.RunConfig(T=1.0, outdir=sys.argv[1] + "/cmp"))
    out["compare"] = loaded()
    out["compare_paths"] = [payload["runs"][m]["solver_path"]
                            for m in ("classical", "sampled")]

    def f1(x):
        return np.array([1.0, 0.0, -x[1]], dtype=getattr(x, "dtype", float))

    def f2(x):
        return np.array([0.0, 1.0, x[0]], dtype=getattr(x, "dtype", float))

    hsys = system_from_fields(3, 2, (f1, f2), ((1, 2),), name="heis3")
    hlyap = LyapunovSpec(3, v=lambda x: 0.5 * float(x @ x),
                         grad=lambda x: 1.0 * x)
    hlaw = synthesized_law(hsys, hlyap, 0.5, 0.1)
    u = feedback_eval(hlaw, np.array([0.3, -0.2, 0.4]), 0.01)
    out["feedback_eval"] = loaded()
    out["u_finite"] = bool(np.all(np.isfinite(u)))

    payload, code = cli.verify(cli.RunConfig(
        outdir=sys.argv[1] + "/verify", span_n=16, negdef_n=256, gain_n=256,
        c1_n=128, quad_steps=10000))
    out["verify"] = loaded()
    out["verify_pass"] = payload["all_pass"]
    out["verify_code"] = code
    print(json.dumps(out))
""").format(mods=WATCHED)


def test_scipy_loads_only_for_verify(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # a cache that holds the library already, so compare only loads it
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    cc = _fastpath.find_compiler()
    if cc is not None:
        lib_dir = tmp_path / "cache" / "oscstab"
        lib_dir.mkdir(parents=True)
        _fastpath._compile(cc, str(lib_dir),
                           str(lib_dir / _fastpath.library_name()))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for stage in ("import", "build", "compare", "feedback_eval"):
        assert out[stage] == [], f"{stage} loaded {out[stage]}"
    if cc is not None:
        assert out["compare_paths"] == ["compiled", "compiled"]
    assert out["u_finite"]
    # the Sobol points are numpy's and the normal quantiles the library's;
    # without a compiler the ball scans import scipy.special, which loads
    # subprocess itself
    if cc is not None:
        assert out["verify"] == []
    else:
        assert [m for m in out["verify"]
                if m != "subprocess"] == ["scipy.special"]
    assert out["verify_pass"] and out["verify_code"] == 0
