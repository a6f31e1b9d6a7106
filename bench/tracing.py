"""In-memory span tracing of the oscstab layers, installed from outside.

Each traced function is wrapped once and the wrapper is bound at every name
through which the package looks it up: every attribute of every loaded
``oscstab`` module that holds the original object (``from ... import`` copies
included), plus class attributes for methods.  A span is (layer, parent, start,
end, extra, error); spans live in flat arrays until the run ends, and the
originals are restored by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import sys
from array import array
from statistics import median
from time import perf_counter

# layer key -> definition sites ("module", "attr" or "Class.method")
LAYERS = {
    "cli": [("oscstab.cli", "run"), ("oscstab.cli", "compare"),
            ("oscstab.cli", "verify")],
    "write": [("oscstab.integrator", "write_trajectory_csv"),
              ("oscstab.integrator", "write_windows_json"),
              ("oscstab.cli", "_write_summary")],
    "integrate": [("oscstab.integrator", "integrate_classical"),
                  ("oscstab.integrator", "integrate_sampled")],
    "probe": [("oscstab.integrator", "prediction_order_probe")],
    "quad": [("oscstab.integrator", "iterated_integral_coefficient"),
             ("oscstab.integrator", "oscillator_coupling")],
    "fastpath": [("oscstab._fastpath", "brockett_trajectory")],
    "feedback_eval": [("oscstab.controller", "feedback_eval")],
    "synthesize": [("oscstab.controller", "synthesize_components"),
                   ("oscstab.controller", "_dual_synthesis")],
    "profile_jac": [("oscstab.controller",
                     "FeedbackLaw.vtilde_values_and_grads")],
    "pair_bracket": [("oscstab.controller", "pair_bracket_field")],
    "drift": [("oscstab.controller", "drift_field")],
    "input_matrix": [("oscstab.vecfield", "input_matrix")],
    "lie_bracket": [("oscstab.vecfield", "lie_bracket")],
    "span_check": [("oscstab.vecfield", "bracket_generating_check")],
    "decrease_rate": [("oscstab.lyapunov", "decrease_rate")],
    "negdef_scan": [("oscstab.lyapunov", "negdef_scan")],
    "gain_scan": [("oscstab.lyapunov", "gain_bound_scan")],
    "correction_scan": [("oscstab.lyapunov", "correction_ratio_sup")],
    "bk_decrease_rate": [("oscstab.brockett", "brockett_decrease_rate")],
    "sample_region": [("oscstab.sampling", "sample_region")],
    "solve": [("oscstab.linsolve", "solve")],
    "condition": [("oscstab.linsolve", "condition_1norm")],
    "dual_jacobian": [("oscstab.dualnum", "jacobian")],
}
LAYER_KEYS = tuple(LAYERS)
_ID = {k: i for i, k in enumerate(LAYER_KEYS)}

# per-layer number taken from the result into the span's ``extra`` slot
_EXTRA = {
    "integrate": lambda traj: traj.t.shape[0] - 1,   # RK4 steps taken
    "sample_region": lambda pts: pts.shape[0],       # points drawn
}

ERR_NONE, ERR_SYNTHESIS, ERR_OTHER = 0, 1, 2


def _resolve(module: str, attr: str):
    mod = sys.modules.get(module)
    if mod is None:
        return None, None
    owner = mod
    parts = attr.split(".")
    for name in parts[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`restore` undoes it."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self.error = array("b")
        self._stack = []
        self._patched = []          # (owner, attr, original)
        self.present = set()        # layer keys whose definition site exists

    def __len__(self):
        return len(self.layer)

    def _wrap(self, key: str, fn):
        lid = _ID[key]
        extra_of = _EXTRA.get(key)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        extra, error, stack = self.extra, self.error, self._stack
        synthesis_error = getattr(sys.modules.get("oscstab.controller"),
                                  "SynthesisError", ())

        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            extra.append(0)
            error.append(ERR_NONE)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error[idx] = (ERR_SYNTHESIS if isinstance(exc, synthesis_error)
                              else ERR_OTHER)
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if extra_of is not None:
                extra[idx] = extra_of(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "oscstab" or name.startswith("oscstab.")]
        for key, sites in LAYERS.items():
            for module, attr in sites:
                owner, fn = _resolve(module, attr)
                if fn is None:
                    continue
                self.present.add(key)
                wrapper = self._wrap(key, fn)
                if "." in attr:     # method: bound on its class
                    name = attr.rsplit(".", 1)[1]
                    self._patched.append((owner, name, fn))
                    setattr(owner, name, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, name, fn))
                            setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, fn = self._patched.pop()
            setattr(owner, name, fn)

    def write_tsv(self, path: str, jobs) -> None:
        """Write spans as TSV; ``jobs`` lists (job index, first, stop, t0)."""
        with open(path, "w") as fh:
            fh.write("job\tspan\tparent\tlayer\tstart_s\tdur_s\textra\terror\n")
            for job, lo, hi, t0 in jobs:
                fh.writelines(
                    f"{job}\t{i}\t{self.parent[i]}\t{LAYER_KEYS[self.layer[i]]}"
                    f"\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - self.start[i]:.9f}"
                    f"\t{self.extra[i]}\t{self.error[i]}\n"
                    for i in range(lo, hi))


def aggregate(tr: Tracer, lo: int, hi: int) -> dict:
    """Per-layer figures over spans ``lo:hi`` (one job)."""
    n = hi - lo
    dur = [tr.end[lo + k] - tr.start[lo + k] for k in range(n)]
    child = [0.0] * n
    in_integrate = [False] * n
    lid = [tr.layer[lo + k] for k in range(n)]
    par = [tr.parent[lo + k] - lo if tr.parent[lo + k] >= lo else -1
           for k in range(n)]
    integ, quad = _ID["integrate"], _ID["quad"]
    for k in range(n):       # parents precede children in span order
        p = par[k]
        if p >= 0:
            child[p] += dur[k]
            in_integrate[k] = lid[p] == integ or in_integrate[p]
    calls = {key: 0 for key in LAYER_KEYS}
    self_s = {key: 0.0 for key in LAYER_KEYS}
    incl_s = {key: 0.0 for key in LAYER_KEYS}
    durs = {key: [] for key in LAYER_KEYS}
    extra = {key: 0 for key in LAYER_KEYS}
    rhs_calls = 0
    window_cert_s = 0.0
    quad_s = 0.0
    scan_points = 0
    synthesis_errors = 0
    scans = {_ID["negdef_scan"], _ID["gain_scan"], _ID["correction_scan"]}
    for k in range(n):
        key = LAYER_KEYS[lid[k]]
        calls[key] += 1
        self_s[key] += dur[k] - child[k]
        incl_s[key] += dur[k]
        durs[key].append(dur[k])
        extra[key] += tr.extra[lo + k]
        p = par[k]
        if key == "feedback_eval" and in_integrate[k]:
            rhs_calls += 1
        elif key == "decrease_rate" and p >= 0 and lid[p] == integ:
            window_cert_s += dur[k]
        elif key == "quad" and (p < 0 or lid[p] != quad):
            quad_s += dur[k]
        elif key == "sample_region" and p >= 0 and lid[p] in scans:
            scan_points += tr.extra[lo + k]
        elif key == "synthesize" and tr.error[lo + k] == ERR_SYNTHESIS:
            synthesis_errors += 1
    us_p50 = {key: 1e6 * median(v) if v else 0.0 for key, v in durs.items()}
    steps = extra["integrate"]
    return {
        "integrator.calls": calls["integrate"],
        "integrator.steps": steps,
        "integrator.self_s": self_s["integrate"],
        "integrator.steps_per_s": (steps / incl_s["integrate"]
                                   if incl_s["integrate"] > 0 else 0.0),
        "integrator.generic_rhs_calls": rhs_calls,
        "integrator.window_cert_s": window_cert_s,
        "integrator.probe_s": incl_s["probe"],
        "integrator.quad_s": quad_s,
        "fastpath.trajectory_s": incl_s["fastpath"],
        "fastpath.calls": calls["fastpath"],
        "controller.feedback_eval.calls": calls["feedback_eval"],
        "controller.feedback_eval.self_s": self_s["feedback_eval"],
        "controller.feedback_eval.us_p50": us_p50["feedback_eval"],
        "controller.synthesize.calls": calls["synthesize"],
        "controller.synthesize.self_s": self_s["synthesize"],
        "controller.synthesize.us_p50": us_p50["synthesize"],
        "controller.synthesis_errors": synthesis_errors,
        "controller.profile_jac.calls": calls["profile_jac"],
        "controller.profile_jac.self_s": self_s["profile_jac"],
        "controller.pair_bracket.calls": calls["pair_bracket"],
        "controller.pair_bracket.self_s": self_s["pair_bracket"],
        "controller.drift.calls": calls["drift"],
        "vecfield.input_matrix.calls": calls["input_matrix"],
        "vecfield.input_matrix.self_s": self_s["input_matrix"],
        "vecfield.lie_bracket.calls": calls["lie_bracket"],
        "vecfield.lie_bracket.self_s": self_s["lie_bracket"],
        "vecfield.span_check.calls": calls["span_check"],
        "vecfield.span_check.self_s": self_s["span_check"],
        "lyapunov.decrease_rate.calls": calls["decrease_rate"],
        "lyapunov.decrease_rate.self_s": self_s["decrease_rate"],
        "lyapunov.decrease_rate.us_p50": us_p50["decrease_rate"],
        "lyapunov.negdef_scan_s": incl_s["negdef_scan"],
        "lyapunov.gain_scan_s": incl_s["gain_scan"],
        "lyapunov.correction_scan_s": incl_s["correction_scan"],
        "lyapunov.scan_points": scan_points,
        "brockett.decrease_rate.calls": calls["bk_decrease_rate"],
        "brockett.decrease_rate.us_p50": us_p50["bk_decrease_rate"],
        "sampling.sample_region.calls": calls["sample_region"],
        "sampling.sample_region.self_s": self_s["sample_region"],
        "linsolve.solve.calls": calls["solve"],
        "linsolve.solve.self_s": self_s["solve"],
        "linsolve.condition.calls": calls["condition"],
        "linsolve.condition.self_s": self_s["condition"],
        "dualnum.jacobian.calls": calls["dual_jacobian"],
        "dualnum.jacobian.self_s": self_s["dual_jacobian"],
        "cli.write_s": incl_s["write"],
    }


# metric -> layer whose presence it needs (for the "predicted nonzero" guard)
METRIC_LAYER = {
    "integrator.calls": "integrate", "integrator.steps": "integrate",
    "controller.feedback_eval.calls": "feedback_eval",
    "controller.synthesize.calls": "synthesize",
    "controller.profile_jac.calls": "profile_jac",
    "controller.pair_bracket.calls": "pair_bracket",
    "controller.drift.calls": "drift",
    "vecfield.input_matrix.calls": "input_matrix",
    "vecfield.lie_bracket.calls": "lie_bracket",
    "vecfield.span_check.calls": "span_check",
    "lyapunov.decrease_rate.calls": "decrease_rate",
    "lyapunov.scan_points": "sample_region",
    "brockett.decrease_rate.calls": "bk_decrease_rate",
    "sampling.sample_region.calls": "sample_region",
    "linsolve.solve.calls": "solve",
    "linsolve.condition.calls": "condition",
    "dualnum.jacobian.calls": "dual_jacobian",
    "cli.bytes_written": "cli",
}
