"""Closed-loop integration and expansion diagnostics.

Fixed-step fourth-order Runge-Kutta on ``xdot = sum_k u_k f_k(x)`` with the
substep count an exact divisor of the oscillation period, so every window
boundary ``t = j eps`` is hit exactly.  Two solution notions are supported:

* classical: the feedback reads the current state ``u = h(x(t), t)``;
* sampled:   the feedback's state argument is frozen at the window start,
             ``u = h(x(j eps), t)``, while its time argument stays
             continuous (sample-and-hold of the spatial argument only).

The right-hand side is merely continuous at profile sign switches for the
low-exponent candidate families, so the classical order theory does not
apply there; correctness is established by step-halving checks instead.

The case-study closed-form law (the one law with ``kernel_p`` set) runs on
the compiled trajectory kernel of :mod:`oscstab._fastpath`; results are
interchangeable with the generic path and the generic path always remains
available.  Every trajectory records in ``solver_path`` which path produced
it, and a law with ``kernel_p`` set that falls back to the generic path
raises one ``RuntimeWarning`` per process naming the reason.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from . import _fastpath
from .controller import (FeedbackLaw, OscillatorAssignment, drift_field,
                         feedback_eval, law_with_period, pair_bracket_field)
from .lyapunov import LyapunovSpec, decrease_rate
from .vecfield import VectorFieldSystem, input_matrix

__all__ = [
    "Trajectory", "WindowTable", "OneStepPrediction", "OrderProbeResult",
    "integrate_classical", "integrate_sampled", "chen_fliess_predict",
    "prediction_order_probe", "increment_diagnostics",
    "iterated_integral_coefficient", "oscillator_coupling",
    "write_trajectory_csv", "write_windows_json",
]

BLOWUP_NORM = 1e6
MIN_SUBSTEPS_PER_KAPPA = 50
# reference steps of the order probe: 16 times the default 400 per window
PROBE_SUBSTEPS = 16 * 400


@dataclass
class WindowTable:
    """Per-window diagnostics at the boundaries ``t = j eps``."""

    j: np.ndarray
    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    r_hat: np.ndarray

    def to_json_list(self) -> List[dict]:
        return [
            {"j": int(jj), "t": float(tt), "V": float(vv), "W": float(ww),
             "r_hat": float(rr)}
            for jj, tt, vv, ww, rr in zip(self.j, self.t, self.v, self.w,
                                          self.r_hat)
        ]


@dataclass
class Trajectory:
    """Time-stamped states with derived channels and window diagnostics.

    ``t`` is strictly increasing starting at 0 and contains every window
    boundary exactly once (boundaries are aligned by construction since the
    substep count divides the period).  ``windows`` covers every completed
    window when a Lyapunov candidate was supplied to the integrator.
    ``solver_path`` is ``"compiled"`` or ``"generic (<reason>)"``, the reason
    being why no compiled kernel ran (``use_fast=False``, no ``kernel_p``,
    no compiler, build failed, ...).
    """

    t: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    eps: float
    substeps: int
    mode: str
    v: Optional[np.ndarray] = None
    windows: Optional[WindowTable] = None
    diverged: bool = False
    solver_path: str = "generic"

    @property
    def n_windows(self) -> int:
        return 0 if self.windows is None else len(self.windows.j)


def _plan(law: FeedbackLaw, T: float, substeps: int) -> Tuple[int, float]:
    eps = law.eps
    J = int(round(T / eps))
    if J < 1:
        raise ValueError(f"horizon {T} shorter than one period {eps}")
    need = MIN_SUBSTEPS_PER_KAPPA * max(law.assignment.kappas)
    if substeps < need:
        raise ValueError(
            f"substeps={substeps} resolves the fastest oscillator poorly; "
            f"need at least {need}")
    return J, eps / substeps


def _generic_steps(sys, law, x0, J, substeps, h, sampled: bool) -> Tuple[np.ndarray, int]:
    n = sys.n
    K = J * substeps + 1
    xs = np.empty((K, n))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    frozen = x.copy()
    for step in range(K - 1):
        if sampled and step % substeps == 0:
            frozen = x.copy()
        t = step * h

        def rhs(xx, tt):
            u = feedback_eval(law, frozen if sampled else xx, tt)
            return input_matrix(sys, xx) @ u

        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[step + 1] = x
        if not np.all(np.isfinite(x)) or float(x @ x) > BLOWUP_NORM ** 2:
            return xs, step + 2
    return xs, K


_fallback_warned = False


def _warn_fallback(reason: str) -> None:
    global _fallback_warned
    if not _fallback_warned:
        _fallback_warned = True
        # stack: _warn_fallback, _steps, _integrate, integrate_*, caller
        warnings.warn(f"compiled integration kernel unavailable ({reason}); "
                      "running the generic RK4 stepper", RuntimeWarning,
                      stacklevel=5)


def _steps(sys, law, x0, J, substeps, h, sampled,
           use_fast) -> Tuple[np.ndarray, int, str]:
    if not use_fast:
        reason = "use_fast=False"
    elif law.kernel_p is None:
        reason = "no kernel_p"
    else:
        try:
            xs, n_valid = _fastpath.closed_loop(sys, law, x0, J, substeps, h,
                                                sampled)
            return xs, n_valid, "compiled"
        except _fastpath.KernelUnavailable as exc:
            reason = str(exc)
        _warn_fallback(reason)
    xs, n_valid = _generic_steps(sys, law, x0, J, substeps, h, sampled)
    return xs, n_valid, f"generic ({reason})"


def _integrate(sys, law, x0, T, substeps, lyap, sampled, use_fast) -> Trajectory:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise ValueError(f"x0 must have shape ({sys.n},)")
    J, h = _plan(law, T, substeps)
    xs, n_valid, solver_path = _steps(sys, law, x0, J, substeps, h, sampled,
                                      use_fast)
    diverged = n_valid < xs.shape[0]
    xs = xs[:n_valid]
    t = np.arange(n_valid) * h
    # snap boundary stamps exactly onto j*eps to keep windows aligned
    bidx = np.arange(0, n_valid, substeps)
    t[bidx] = bidx // substeps * law.eps
    traj = Trajectory(
        t=t, states=xs, norms=np.linalg.norm(xs, axis=1), eps=law.eps,
        substeps=substeps, mode="sampled" if sampled else "classical",
        diverged=diverged, solver_path=solver_path)
    if lyap is not None:
        traj.v = _v_channel(lyap, xs)
        n_windows = (n_valid - 1) // substeps
        jj = np.arange(n_windows)
        wb = np.array([
            decrease_rate(sys, law, lyap, xs[j * substeps]).w
            for j in range(n_windows)])
        traj.windows = WindowTable(j=jj, t=jj * law.eps,
                                   v=traj.v[::substeps][:n_windows], w=wb,
                                   r_hat=_remainder(traj, wb))
    return traj


def _v_channel(lyap: LyapunovSpec, states: np.ndarray) -> np.ndarray:
    if lyap.batch_v is not None:
        return np.asarray(lyap.batch_v(states), dtype=float)
    return np.array([float(lyap.v(x)) for x in states])


def _remainder(traj: Trajectory, w: np.ndarray) -> np.ndarray:
    """``r_hat`` (see :func:`increment_diagnostics`) for the values ``w``."""
    vb, nw = traj.v[::traj.substeps], len(w)
    return ((vb[1:nw + 1] - vb[:nw]) / traj.eps - w) / math.sqrt(traj.eps)


def integrate_classical(sys: VectorFieldSystem, law: FeedbackLaw, x0,
                        T: float, substeps: int = 400,
                        lyap: Optional[LyapunovSpec] = None,
                        use_fast: bool = True) -> Trajectory:
    """Integrate the closed loop with the feedback reading the live state.

    ``T`` is rounded to a whole number of periods; one sample is recorded per
    substep.  On blow-up (norm above 1e6 or non-finite state) the trajectory
    is truncated and flagged instead of raising.
    """
    return _integrate(sys, law, x0, T, substeps, lyap, sampled=False,
                      use_fast=use_fast)


def integrate_sampled(sys: VectorFieldSystem, law: FeedbackLaw, x0,
                      T: float, substeps: int = 400,
                      lyap: Optional[LyapunovSpec] = None,
                      use_fast: bool = True) -> Trajectory:
    """Integrate with the feedback's state argument frozen per window.

    The frozen argument is the state at the latest window boundary; the time
    argument of the oscillators stays continuous.
    """
    return _integrate(sys, law, x0, T, substeps, lyap, sampled=True,
                      use_fast=use_fast)


class OneStepPrediction(NamedTuple):
    """Leading-order state prediction over one oscillation period."""

    x0: np.ndarray
    eps: float
    predicted: np.ndarray
    drift_term: np.ndarray
    bracket_term: np.ndarray


def chen_fliess_predict(sys: VectorFieldSystem, law: FeedbackLaw,
                        x0) -> OneStepPrediction:
    """Truncated Chen-Fliess prediction of the state after one period.

    The oscillators average out to first order and the surviving second-order
    iterated integrals produce exactly the pair brackets, so

        x(eps) ~ x0 + eps * (g0(x0) + gamma^2 sum_I [g_i^I, g_j^I](x0))

    with a remainder of order eps^(3/2) for twice-differentiable closed-loop
    fields.
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = drift_field(law, x0)
    acc = np.sum(pair_bracket_field(law, x0), axis=0)
    predicted = x0 + law.eps * (g0 + law.gamma ** 2 * acc)
    return OneStepPrediction(x0=x0, eps=law.eps, predicted=predicted,
                             drift_term=g0, bracket_term=acc)


class OrderProbeResult(NamedTuple):
    exponent: float
    eps_values: Tuple[float, ...]
    residuals: Tuple[float, ...]
    excluded: Tuple[float, ...]


def prediction_order_probe(sys: VectorFieldSystem, law: FeedbackLaw, x0,
                           eps_list: Sequence[float]) -> OrderProbeResult:
    """Fit the decay exponent of the one-step prediction residual.

    For each period the law is rebuilt (oscillator amplitudes scale with the
    period), integrated over a single window with ``PROBE_SUBSTEPS`` (6400)
    steps as the reference, and the residual against the truncated
    prediction is recorded; the exponent is the log-log slope.  Residuals at
    solver-noise level (below 1e-13) are excluded and reported.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("need at least 3 strictly decreasing period values")
    used: List[Tuple[float, float]] = []
    excluded: List[float] = []
    for e in eps_list:
        lo = law_with_period(law, e)
        traj = integrate_classical(sys, lo, x0, T=e, substeps=PROBE_SUBSTEPS)
        if traj.diverged:
            raise ArithmeticError(f"one-window integration diverged at eps={e}")
        rho = float(np.linalg.norm(traj.states[-1]
                                   - chen_fliess_predict(sys, lo, x0).predicted))
        if rho < 1e-13:
            excluded.append(e)
        else:
            used.append((e, rho))
    if len(used) < 2:
        raise ArithmeticError("too few usable residuals to fit an exponent")
    le = np.log([u[0] for u in used])
    lr = np.log([u[1] for u in used])
    slope = float(np.polyfit(le, lr, 1)[0])
    return OrderProbeResult(exponent=slope,
                            eps_values=tuple(u[0] for u in used),
                            residuals=tuple(u[1] for u in used),
                            excluded=tuple(excluded))


def increment_diagnostics(traj: Trajectory,
                          lyap: LyapunovSpec) -> Tuple[np.ndarray, float]:
    """Empirical expansion remainder per window.

    Using the recorded V channel and certificate values,

        r_hat_j = ((V_{j+1} - V_j) / eps - w_j) / sqrt(eps),

    which is the remainder the one-period expansion of V leaves behind.
    Returns the series and its max absolute value.
    """
    if traj.windows is None or len(traj.windows.j) < 1:
        raise ValueError("trajectory carries no window records with "
                         "certificate values; integrate with a candidate")
    if traj.v is None:
        traj.v = _v_channel(lyap, traj.states)
    r_hat = _remainder(traj, traj.windows.w)
    traj.windows.r_hat = r_hat
    return r_hat, float(np.max(np.abs(r_hat)))


def oscillator_coupling(kappa_a: int, kappa_b: int, eps: float,
                        quad_steps: int) -> float:
    """Antisymmetrized second-order iterated integral of two oscillators.

    Integrates the cosine channel at multiplier ``kappa_a`` against the sine
    channel at ``kappa_b`` over one period (both orderings, difference
    taken) by composite Simpson quadrature.  Equal multipliers give -2 eps;
    distinct integer multipliers are orthogonal over the period and give
    zero up to quadrature error.  This low-level entry point accepts equal
    multipliers deliberately: it is how resonance witnesses are produced.
    """
    if quad_steps < 10_000:
        raise ValueError("quad_steps must be at least 10000")
    steps = quad_steps + (quad_steps % 2)  # Simpson wants an even count
    s = np.linspace(0.0, eps, steps + 1)
    om = 2.0 * math.pi / eps
    amp_a = 2.0 * math.sqrt(kappa_a * math.pi / eps)
    amp_b = 2.0 * math.sqrt(kappa_b * math.pi / eps)
    fa = amp_a * np.cos(kappa_a * om * s)
    fb = amp_b * np.sin(kappa_b * om * s)
    inner_b = cumulative_simpson(fb, x=s, initial=0.0)
    inner_a = cumulative_simpson(fa, x=s, initial=0.0)
    fwd = simpson(fa * inner_b, x=s)
    rev = simpson(fb * inner_a, x=s)
    return float(fwd - rev)


def iterated_integral_coefficient(assignment: OscillatorAssignment,
                                  pair_a, pair_b, quad_steps: int) -> float:
    """Cross-coupling coefficient between two pairs of the assignment."""
    ka = assignment.kappas[assignment.index_of(pair_a)]
    kb = assignment.kappas[assignment.index_of(pair_b)]
    return oscillator_coupling(ka, kb, assignment.eps, quad_steps)


# --- artifact formats --------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header ``t,x1,...,xn,V,norm``; 17 significant digits, LF."""
    if traj.v is None:
        raise ValueError("trajectory has no V channel; integrate with a candidate")
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",V,norm"
    table = np.column_stack((traj.t, traj.states, traj.v, traj.norms))
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header,
                   comments="")


def write_windows_json(traj: Trajectory, path) -> None:
    """JSON array of ``{j, t, V, W, r_hat}`` window records."""
    import json

    if traj.windows is None:
        raise ValueError("trajectory has no window records")
    with open(path, "w", newline="\n") as fh:
        json.dump(traj.windows.to_json_list(), fh, indent=1, sort_keys=True)
        fh.write("\n")
