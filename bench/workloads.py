"""The three benchmark workloads: seeded inputs, jobs and output checks.

Every call into the package goes through a module attribute looked up at call
time (``controller.feedback_eval(...)``), so the tracer's wrappers see it.
A job returns its ops; :meth:`check` runs afterwards, outside every timer,
and turns wrong outputs into failed ops.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, List, Optional

import numpy as np

from oscstab import brockett, cli, controller, integrator, lyapunov, vecfield

HERE = os.path.dirname(os.path.abspath(__file__))

# fig1-left setup of the paper (closed-form law, p = 1)
P, GAMMA, EPS, SUBSTEPS = 1.0, 0.5, 0.1, 400
FIG1_T = 0.3                   # three windows per mode and job
FIG1_VARIANTS = 16             # seed % 16 picks the initial state
FIG1_ATOL = 1e-9               # window-boundary state vs stored reference
VERIFY_BASE_SEED = 2024        # RunConfig default: seed 0 is the published sweep
# states per system and job; the many cheap small-system ticks keep the
# median op inside one tight latency cluster, whatever the seed
SYNTH_STATES = {"brockett10": 8, "poly3": 64, "heis3": 64}
SYNTH_TICKS = 2                # control ticks per state, at seeded times
TICK_RTOL = 1e-9
CERT_RTOL_CLOSED = 1e-9
CERT_RTOL_FD = 1e-6
STATE_ATOL = 1e-9


@dataclass
class Op:
    """One caller-timed call into the package."""

    kind: str
    wall_s: float
    error: Optional[str] = None           # exception type name when it raised
    out: Any = None
    ref: Any = None                        # key for the check
    failed_check: Optional[str] = None


@dataclass
class CheckLog:
    """Correctness verdicts across a run (only mismatches are kept)."""

    mismatches: List[str] = field(default_factory=list)
    checked: int = 0
    max_dev: dict = field(default_factory=dict)

    def dev(self, name: str, value: float) -> None:
        self.max_dev[name] = max(self.max_dev.get(name, 0.0), float(value))

    def fail(self, op: Op, why: str) -> None:
        op.failed_check = why
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{op.kind}: {why}")


def _call(kind: str, fn, *args, ref=None, **kwargs) -> Op:
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:      # an op that raises is a failed op
        return Op(kind, perf_counter() - t0, error=type(exc).__name__, ref=ref)
    return Op(kind, perf_counter() - t0, out=out, ref=ref)


# --- fig1-compare -----------------------------------------------------------

def fig1_x0(variant: int) -> np.ndarray:
    """Variant 0 is the published fig1-left state; others rescale it."""
    x0 = np.array(brockett.PRESETS["fig1-left"]["x0"], dtype=float)
    if variant == 0:
        return x0
    rng = np.random.default_rng([0xF161, variant])
    return x0 * rng.uniform(0.5, 1.5, x0.shape[0])


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Fig1Compare:
    """``cli.compare`` on the fig1-left setup; one op is one job."""

    def __init__(self, seed: int, workdir: str):
        self.variant = seed % FIG1_VARIANTS
        self.x0 = fig1_x0(self.variant)
        self.outdir = os.path.join(workdir, "compare")
        self.config = cli.RunConfig(
            x0=tuple(self.x0.tolist()), p=P, gamma=GAMMA, eps=EPS, T=FIG1_T,
            substeps=SUBSTEPS, law_mode="closed-form", outdir=self.outdir)
        self.bytes_written = 0
        self._ref = None

    def describe(self) -> dict:
        return {"variant": self.variant, "x0": self.x0.tolist(), "T": FIG1_T,
                "substeps": SUBSTEPS}

    def warmup(self) -> None:
        cli.compare(replace(self.config, T=EPS, outdir=self.outdir + "-warm"))

    def job(self) -> List[Op]:
        op = _call("compare", cli.compare, self.config)
        self.bytes_written = _dir_bytes(self.outdir)
        return [op]

    def integration_probe(self) -> None:
        sys_ = brockett.brockett_system()
        law = brockett.brockett_law(P, GAMMA, EPS)
        integrator.integrate_classical(sys_, law, self.x0, EPS, SUBSTEPS)

    def _reference(self) -> dict:
        if self._ref is None:
            with open(os.path.join(HERE, "reference_fig1.json")) as fh:
                data = json.load(fh)
            if (data["T"], data["substeps"]) != (FIG1_T, SUBSTEPS):
                raise ValueError("reference_fig1.json was made for another setup")
            self._ref = data["variants"][str(self.variant)]
            if not np.array_equal(np.array(self._ref["x0"]), self.x0):
                raise ValueError("reference_fig1.json x0 differs from the generator")
        return self._ref

    def check(self, ops: List[Op], log: CheckLog) -> None:
        ref = self._reference()
        for op in ops:
            if op.error is not None:
                continue
            log.checked += 1
            payload, _code = op.out
            for mode in ("classical", "sampled"):
                if payload["runs"][mode]["diverged"]:
                    log.fail(op, f"{mode} run diverged")
                    break
                rows = np.loadtxt(os.path.join(self.outdir,
                                               f"trajectory_{mode}.csv"),
                                  delimiter=",", skiprows=1)
                bound = rows[::SUBSTEPS]
                want = np.array(ref[mode])
                if bound.shape[0] != want.shape[0]:
                    log.fail(op, f"{mode}: {bound.shape[0]} window boundaries, "
                                 f"expected {want.shape[0]}")
                    break
                dev = float(np.max(np.abs(bound[:, 1:11] - want)))
                log.dev(f"fig1.{mode}.boundary_state", dev)
                if not dev <= FIG1_ATOL:
                    log.fail(op, f"{mode}: boundary state off by {dev:.3e}")
                    break
                v = bound[:, 11]
                if not np.all(np.diff(v) < 0.0):
                    log.fail(op, f"{mode}: V not strictly decreasing at windows")
                    break


# --- verify-sweep -----------------------------------------------------------

class VerifySweep:
    """``cli.verify`` at its default knobs; one op is one job."""

    def __init__(self, seed: int, workdir: str):
        self.outdir = os.path.join(workdir, "verify")
        self.config = cli.RunConfig(seed=(VERIFY_BASE_SEED + seed) % 2 ** 32,
                                    outdir=self.outdir)
        self.bytes_written = 0

    def describe(self) -> dict:
        return {"scan_seed": self.config.seed}

    def _probe_setup(self):
        x = np.zeros(10)
        x[0], x[4] = 0.5, 1.0     # the sweep's prediction-order probe state
        return (brockett.brockett_system(), brockett.brockett_lyapunov(P),
                brockett.brockett_law(P, GAMMA, EPS), x)

    def warmup(self) -> None:
        sys_, lyap, law, x = self._probe_setup()
        integrator.integrate_classical(sys_, law, x, EPS, SUBSTEPS)
        lyapunov.decrease_rate(sys_, law, lyap, x)

    def integration_probe(self) -> None:
        sys_, _lyap, law, x = self._probe_setup()
        integrator.integrate_classical(sys_, law, x, EPS, SUBSTEPS)

    def job(self) -> List[Op]:
        op = _call("verify", cli.verify, self.config)
        self.bytes_written = _dir_bytes(self.outdir)
        return [op]

    def check(self, ops: List[Op], log: CheckLog) -> None:
        for op in ops:
            if op.error is not None:
                continue
            log.checked += 1
            payload, code = op.out
            bad = [k for k, c in payload["checks"].items() if not c["pass"]]
            if bad or code != 0:
                log.fail(op, f"verify checks failed: {bad} (exit {code})")


# --- synth-control ----------------------------------------------------------

def _dtype(x):
    return object if getattr(x, "dtype", None) == object else float


@dataclass
class FieldSpec:
    """Fields with the benchmark's own analytic Jacobians (reference side)."""

    fields: tuple
    jacobians: tuple
    pairs: tuple

    def bracket_matrix(self, x) -> np.ndarray:
        cols = [f(x) for f in self.fields]
        for i, j in self.pairs:
            fi, fj = self.fields[i - 1](x), self.fields[j - 1](x)
            cols.append(self.jacobians[j - 1](x) @ fi
                        - self.jacobians[i - 1](x) @ fj)
        return np.column_stack(cols).astype(float)

    def components(self, x):
        """(v0, vtilde) for V = |x|^2 / 2 by a LAPACK solve."""
        m = len(self.fields)
        sol = np.linalg.solve(self.bracket_matrix(x), -np.asarray(x, float))
        return sol[:m], sol[m:]


def heis3_fields():
    def f1(x):
        return np.array([1.0, 0.0, -x[1]], dtype=_dtype(x))

    def f2(x):
        return np.array([0.0, 1.0, x[0]], dtype=_dtype(x))
    return f1, f2


def heis3_spec() -> FieldSpec:
    j1 = np.zeros((3, 3))
    j1[2, 1] = -1.0
    j2 = np.zeros((3, 3))
    j2[2, 0] = 1.0
    return FieldSpec(heis3_fields(), (lambda x: j1, lambda x: j2), ((1, 2),))


def poly3_spec(rng) -> FieldSpec:
    """Seeded quadratic fields ``b + A x + Q(x, x) / 2`` on R^3.

    The heis3 fields plus a seeded perturbation of size 0.2, so the bracket
    matrix stays well conditioned on the sampled ball of radius 0.5.
    """
    base_a = [np.zeros((3, 3)), np.zeros((3, 3))]
    base_a[0][2, 1] = -1.0
    base_a[1][2, 0] = 1.0
    base_b = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    fields, jacs = [], []
    for k in range(2):
        b = base_b[k] + 0.2 * rng.uniform(-1, 1, 3)
        a = base_a[k] + 0.2 * rng.uniform(-1, 1, (3, 3))
        q = 0.2 * rng.uniform(-1, 1, (3, 3, 3))
        q = 0.5 * (q + np.transpose(q, (0, 2, 1)))   # symmetric in x-slots

        def f(x, b=b, a=a, q=q):
            x = np.asarray(x)
            return b + a @ x + 0.5 * ((q @ x) @ x)

        def jac(x, a=a, q=q):
            return a + q @ np.asarray(x)
        fields.append(f)
        jacs.append(jac)
    return FieldSpec(tuple(fields), tuple(jacs), ((1, 2),))


def quadratic_candidate(n: int):
    return lyapunov.LyapunovSpec(
        n=n, v=lambda x: 0.5 * sum(x[i] * x[i] for i in range(n)),
        grad=lambda x: np.array([x[i] for i in range(n)], dtype=_dtype(x)))


def _split(vt: float):
    if vt == 0.0:
        return 0.0, 0.0
    r = math.sqrt(abs(vt))
    return r, math.copysign(r, vt)


def reference_control(pairs, v0, vt, t: float) -> np.ndarray:
    """``u = v0 + gamma sum_I v^I phi^I(t)`` written out from the paper:
    multipliers 1..|S|, cosine on the first and sine on the second channel,
    amplitude ``2 sqrt(kappa pi / eps)``."""
    u = np.array(v0, dtype=float)
    om = 2.0 * math.pi / EPS
    for q, (i, j) in enumerate(pairs):
        kappa = q + 1
        amp = 2.0 * math.sqrt(kappa * math.pi / EPS)
        vi, vj = _split(float(vt[q]))
        u[i - 1] += GAMMA * vi * amp * math.cos(kappa * om * t)
        u[j - 1] += GAMMA * vj * amp * math.sin(kappa * om * t)
    return u


def fd_certificate(spec: FieldSpec, x, h: float = 1e-5) -> float:
    """``w = alpha + gamma^2 beta`` for V = |x|^2/2 with central-difference
    profile gradients of the LAPACK solve (independent of the package)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    v0, vt = spec.components(x)
    grads = np.zeros((len(vt), n))
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        grads[:, d] = (spec.components(x + e)[1]
                       - spec.components(x - e)[1]) / (2.0 * h)
    fx = [f(x) for f in spec.fields]
    alpha = float(x @ sum(v0[k] * fx[k] for k in range(len(fx))))
    br = spec.bracket_matrix(x)[:, len(fx):]
    beta = 0.0
    for q, (i, j) in enumerate(spec.pairs):
        fi, fj = fx[i - 1], fx[j - 1]
        field_q = vt[q] * br[:, q] + 0.5 * ((grads[q] @ fi) * fj
                                            - (grads[q] @ fj) * fi)
        beta += float(x @ field_q)
    return alpha + GAMMA * GAMMA * beta


def reference_window(spec: FieldSpec, x0, substeps: int) -> np.ndarray:
    """RK4 over one sampled window: the state argument of the feedback is
    frozen at ``x0``, so the controls are an open-loop function of time."""
    v0, vt = spec.components(x0)
    h = EPS / substeps
    x = np.array(x0, dtype=float)

    def rhs(xx, t):
        u = reference_control(spec.pairs, v0, vt, t)
        return np.column_stack([f(xx) for f in spec.fields]) @ u

    for s in range(substeps):
        t = s * h
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _ball(rng, k: int, n: int, radius: float) -> np.ndarray:
    z = rng.standard_normal((k, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (radius * rng.uniform(0.2, 1.0, k) ** (1.0 / n))[:, None]


@dataclass
class Plant:
    name: str
    sys: Any
    lyap: Any
    law: Any
    states: np.ndarray
    times: np.ndarray
    spec: Optional[FieldSpec]       # None: brockett10 closed forms are the oracle
    integrate: bool


class SynthControl:
    """Synthesized laws on brockett10, a seeded poly3 and heis3 built with
    ``system_from_fields``: control ticks and certificates at seeded states,
    and one short sampled integration with a candidate per small system."""

    INTEG_SUBSTEPS = 50     # the minimum for a single pair (kappa = 1)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([0x5E7C, seed % 2 ** 32])
        k = SYNTH_STATES
        bsys = brockett.brockett_system()
        blyap = brockett.brockett_lyapunov(P)
        poly = poly3_spec(rng)
        heis = heis3_spec()
        psys = vecfield.VectorFieldSystem(
            n=3, m=2, fields=poly.fields, jacobians=poly.jacobians,
            pairs=poly.pairs, name="poly3")
        hsys = vecfield.system_from_fields(3, 2, heis.fields, heis.pairs,
                                           name="heis3")
        quad = quadratic_candidate(3)
        self.plants = [
            Plant("brockett10", bsys, blyap,
                  brockett.brockett_law(P, GAMMA, EPS, mode="synthesized"),
                  _ball(rng, k["brockett10"], 10, 1.5),
                  rng.uniform(0.0, 1.0, (k["brockett10"], SYNTH_TICKS)), None,
                  False),
            Plant("poly3", psys, quad,
                  controller.synthesized_law(psys, quad, GAMMA, EPS),
                  _ball(rng, k["poly3"], 3, 0.5),
                  rng.uniform(0.0, 1.0, (k["poly3"], SYNTH_TICKS)), poly, True),
            Plant("heis3", hsys, quad,
                  controller.synthesized_law(hsys, quad, GAMMA, EPS),
                  _ball(rng, k["heis3"], 3, 1.0),
                  rng.uniform(0.0, 1.0, (k["heis3"], SYNTH_TICKS)), heis, True),
        ]
        self.bytes_written = 0
        self._refs = {}

    def describe(self) -> dict:
        return {p.name: {"states": len(p.states), "integrate": p.integrate}
                for p in self.plants}

    def warmup(self) -> None:
        for p in self.plants:
            controller.feedback_eval(p.law, p.states[0], float(p.times[0, 0]))

    def integration_probe(self) -> None:
        p = self.plants[1]
        integrator.integrate_sampled(p.sys, p.law, p.states[0], EPS,
                                     self.INTEG_SUBSTEPS)

    def job(self) -> List[Op]:
        ops = []
        for p in self.plants:
            for s, (x, ts) in enumerate(zip(p.states, p.times)):
                for t in ts:
                    ops.append(_call(f"{p.name}/tick", controller.feedback_eval,
                                     p.law, x, float(t), ref=(p.name, s, t)))
                ops.append(_call(f"{p.name}/cert", lyapunov.decrease_rate,
                                 p.sys, p.law, p.lyap, x, ref=(p.name, s, None)))
            if p.integrate:
                ops.append(_call(f"{p.name}/integrate",
                                 integrator.integrate_sampled, p.sys, p.law,
                                 p.states[0], EPS, self.INTEG_SUBSTEPS, p.lyap,
                                 ref=(p.name, 0, None)))
        return ops

    def _reference(self, plant: Plant, s: int, kind: str, t=None):
        key = (plant.name, s, kind, t)
        if key not in self._refs:
            x = plant.states[s]
            if plant.spec is None:          # brockett10: closed forms
                vt = brockett.brockett_vtilde(P, x)
                val = {"tick": lambda: reference_control(
                           plant.sys.pairs, -x[:4], vt, t),
                       "cert": lambda: brockett.brockett_decrease_rate(
                           P, GAMMA, x)}[kind]()
            elif kind == "tick":
                v0, vt = plant.spec.components(x)
                val = reference_control(plant.spec.pairs, v0, vt, t)
            elif kind == "cert":
                val = fd_certificate(plant.spec, x)
            else:
                val = reference_window(plant.spec, x, self.INTEG_SUBSTEPS)
            self._refs[key] = val
        return self._refs[key]

    def check(self, ops: List[Op], log: CheckLog) -> None:
        plants = {p.name: p for p in self.plants}
        for op in ops:
            if op.error is not None:
                continue
            log.checked += 1
            name, s, t = op.ref
            plant = plants[name]
            kind = op.kind.split("/")[1]
            ref = self._reference(plant, s, kind, t)
            if kind == "tick":
                dev = float(np.max(np.abs(op.out - ref)))
                tol = TICK_RTOL * (1.0 + float(np.max(np.abs(ref))))
            elif kind == "cert":
                dev = abs(op.out.w - ref)
                tol = (CERT_RTOL_CLOSED if plant.spec is None
                       else CERT_RTOL_FD) * (1.0 + abs(ref))
            else:
                traj = op.out
                if traj.diverged:
                    log.fail(op, "integration diverged")
                    continue
                dev = float(np.max(np.abs(traj.states[-1] - ref)))
                tol = STATE_ATOL
                w_ref = self._reference(plant, s, "cert")
                w_dev = abs(float(traj.windows.w[0]) - w_ref)
                log.dev(f"{name}.window_cert", w_dev)
                if not w_dev <= CERT_RTOL_FD * (1.0 + abs(w_ref)):
                    log.fail(op, f"window certificate off by {w_dev:.3e}")
                    continue
            log.dev(f"{name}.{kind}", dev)
            if not dev <= tol:
                log.fail(op, f"state {s}: off by {dev:.3e} (tolerance {tol:.1e})")


WORKLOADS = {
    "fig1-compare": Fig1Compare,
    "verify-sweep": VerifySweep,
    "synth-control": SynthControl,
}
