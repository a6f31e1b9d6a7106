"""Closed-loop integration and expansion diagnostics.

Fixed-step fourth-order Runge-Kutta on ``xdot = sum_k u_k f_k(x)`` with the
substep count an exact divisor of the oscillation period, so every window
boundary ``t = j eps`` is hit exactly.  Two solution notions are supported:

* classical: the feedback reads the current state ``u = h(x(t), t)``;
* sampled:   the feedback's state argument is frozen at the window start,
             ``u = h(x(j eps), t)``, while its time argument stays
             continuous (sample-and-hold of the spatial argument only).

The generic stepper evaluates the feedback at every RK4 stage in classical
mode, four ``law.components`` calls per step.  In sampled mode the
components are constant over a window, so it makes one ``components`` call
per window: one :func:`~oscstab.controller.feedback_eval` call at the window
start gives the controls at all ``2 substeps + 1`` distinct stage times, and
each stage then costs only an ``input_matrix`` evaluation.

The right-hand side is merely continuous at profile sign switches for the
low-exponent candidate families, so the classical order theory does not
apply there; correctness is established by step-halving checks instead.

The oscillator identities the design rests on, one-period iterated
integrals of ``-2 eps`` for a pair against itself and zero for distinct
multipliers, have one entry point, :func:`coupling_matrix`.

The case-study closed-form law, which :mod:`oscstab._fastpath` recognises by
its callables, runs on that module's compiled trajectory kernel; its states
agree with the generic path's up to rounding, and only that recognition and
whether the library loads pick the path.  Every trajectory records in
``solver_path`` which path produced it, and a recognised law that falls back
raises one ``RuntimeWarning`` per process naming the reason.  The CSV
artifacts are written by one loop, in blocks of rows formatted by the same
compiled library or, with the same bytes, by Python's ``%`` operator.

Every artifact, CSV or JSON, is rewritten in place: written from offset 0
without truncating first, then trimmed to the bytes written
(:func:`_overwrite`).  On ext4, truncating a non-empty file to zero frees
its blocks and marks it for the replace-via-truncate heuristic
(``auto_da_alloc``), which starts writeback when the file is closed; a
rerun into an existing output directory paid that on every file.  Targets
that are not regular files, such as ``/dev/null`` or a pipe, are written
but never trimmed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _block, _fastpath
from .controller import (FeedbackLaw, SynthesisError, _check_law_system,
                         drift_field, feedback_eval, law_with_period,
                         oscillator_amplitude, oscillator_waves,
                         pair_bracket_field)
from .lyapunov import LyapunovSpec, decrease_rate
from .vecfield import VectorFieldSystem, input_matrix

__all__ = [
    "Trajectory", "WindowTable", "OneStepPrediction", "OrderProbeResult",
    "integrate_classical", "integrate_sampled", "chen_fliess_predict",
    "prediction_order_probe", "coupling_matrix",
    "write_trajectory_csv", "write_windows_json",
]

MIN_SUBSTEPS_PER_KAPPA = 50
# fewest Simpson intervals of the oscillator quadrature
MIN_QUAD_STEPS = 10_000
# reference steps of the order probe: 16 times the default 400 per window
PROBE_SUBSTEPS = 16 * 400
# rows per block of the CSV write loop: bounds either formatter's buffer
CSV_CHUNK_ROWS = 4096


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
    being why no compiled kernel ran (``not the case-study closed-form
    law``, no compiler, build failed, ...).
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
    if not math.isfinite(T):
        raise ValueError(f"horizon T={T} is not finite")
    J = int(round(T / eps))
    if J < 1:
        raise ValueError(f"horizon T={T} shorter than one period {eps}")
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
    try:
        for step in range(K - 1):
            t = step * h
            if sampled:
                s = step % substeps
                if s == 0:
                    # the state argument is frozen for the whole window, so
                    # one call gives the controls at all distinct stage
                    # times: step starts at even rows, midpoints at odd ones
                    starts = (step + np.arange(substeps + 1)) * h
                    ts = np.empty(2 * substeps + 1)
                    ts[0::2], ts[1::2] = starts, starts[:-1] + 0.5 * h
                    held = feedback_eval(law, x, ts)
                k1 = input_matrix(sys, x) @ held[2 * s]
                k2 = input_matrix(sys, x + 0.5 * h * k1) @ held[2 * s + 1]
                k3 = input_matrix(sys, x + 0.5 * h * k2) @ held[2 * s + 1]
                k4 = input_matrix(sys, x + h * k3) @ held[2 * s + 2]
            else:
                k1 = input_matrix(sys, x) @ feedback_eval(law, x, t)
                xx = x + 0.5 * h * k1
                k2 = input_matrix(sys, xx) @ feedback_eval(law, xx, t + 0.5 * h)
                xx = x + 0.5 * h * k2
                k3 = input_matrix(sys, xx) @ feedback_eval(law, xx, t + 0.5 * h)
                xx = x + h * k3
                k4 = input_matrix(sys, xx) @ feedback_eval(law, xx, t + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            xs[step + 1] = x
            if not np.all(np.isfinite(x)) or float(x @ x) > _fastpath.BLOWUP_SQ:
                return xs, step + 2
    except SynthesisError as exc:
        raise SynthesisError(str(exc), exc.condition, step, t,
                             step // substeps) from exc
    except ArithmeticError as exc:
        # a non-finite profile: located as a SynthesisError is, same type
        raise type(exc)(f"{exc} (at step {step}, t={t!r}, "
                        f"window {step // substeps})") from exc
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


def _steps(sys, law, x0, J, substeps, h, sampled) -> Tuple[np.ndarray, int, str]:
    p = _fastpath.closed_form_exponent(law)
    if p is None:
        reason = "not the case-study closed-form law"
    else:
        try:
            xs, n_valid = _fastpath.brockett_trajectory(law, p, x0, J,
                                                        substeps, h, sampled)
            return xs, n_valid, "compiled"
        except _fastpath.KernelUnavailable as exc:
            reason = str(exc)
        _warn_fallback(reason)
    xs, n_valid = _generic_steps(sys, law, x0, J, substeps, h, sampled)
    return xs, n_valid, f"generic ({reason})"


def _integrate(sys, law, x0, T, substeps, lyap, sampled) -> Trajectory:
    _check_law_system(sys, law)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise ValueError(f"x0 must have shape ({sys.n},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 has non-finite entries: {x0.tolist()}")
    J, h = _plan(law, T, substeps)
    xs, n_valid, solver_path = _steps(sys, law, x0, J, substeps, h, sampled)
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
        traj.v = _block.rows(lyap.v, xs)
        n_windows = (n_valid - 1) // substeps
        jj = np.arange(n_windows)
        wb = _window_rates(sys, law, lyap, xs[::substeps][:n_windows], t,
                           substeps)
        traj.windows = WindowTable(j=jj, t=jj * law.eps,
                                   v=traj.v[::substeps][:n_windows], w=wb,
                                   r_hat=_remainder(traj, wb))
    return traj


def _window_rates(sys, law, lyap, xb, t, substeps) -> np.ndarray:
    """Certificate ``w`` at the window starts ``xb``, in one block call.

    A ``SynthesisError`` does not say which row raised it, so the windows
    are then walked one point at a time: the error raised is the one of the
    first failing window, a ``SynthesisError`` carrying that window's step,
    time and index."""
    try:
        return decrease_rate(sys, law, lyap, xb).w
    except SynthesisError:
        for j, x in enumerate(xb):
            try:
                decrease_rate(sys, law, lyap, x)
            except SynthesisError as exc:
                raise SynthesisError(str(exc), exc.condition, j * substeps,
                                     float(t[j * substeps]), j) from exc
        raise


def _remainder(traj: Trajectory, w: np.ndarray) -> np.ndarray:
    """Expansion remainder per window for the certificate values ``w``,

        r_hat_j = ((V_{j+1} - V_j) / eps - w_j) / sqrt(eps),

    which is what the one-period expansion of V leaves behind."""
    vb, nw = traj.v[::traj.substeps], len(w)
    return ((vb[1:nw + 1] - vb[:nw]) / traj.eps - w) / math.sqrt(traj.eps)


def _unrecognised(law: FeedbackLaw, use_fast: bool) -> FeedbackLaw:
    # use_fast=False, kept because bench/make_reference.py passes it, adds no
    # path: it wraps the components in a callable the kernel does not know
    c = law.components
    return law if use_fast else replace(law, components=lambda x: c(x))


def integrate_classical(sys: VectorFieldSystem, law: FeedbackLaw, x0,
                        T: float, substeps: int = 400,
                        lyap: Optional[LyapunovSpec] = None,
                        use_fast: bool = True) -> Trajectory:
    """Integrate the closed loop with the feedback reading the live state.

    ``T`` is rounded to a whole number of periods; one sample is recorded per
    substep.  On blow-up (norm above 1e6 or non-finite state) the trajectory
    is truncated and flagged instead of raising; a non-finite ``x0`` raises
    ``ValueError`` before any step, on either path.
    """
    return _integrate(sys, _unrecognised(law, use_fast), x0, T, substeps,
                      lyap, sampled=False)


def integrate_sampled(sys: VectorFieldSystem, law: FeedbackLaw, x0,
                      T: float, substeps: int = 400,
                      lyap: Optional[LyapunovSpec] = None,
                      use_fast: bool = True) -> Trajectory:
    """Integrate with the feedback's state argument frozen per window.

    The frozen argument is the state at the latest window boundary; the time
    argument of the oscillators stays continuous.
    """
    return _integrate(sys, _unrecognised(law, use_fast), x0, T, substeps,
                      lyap, sampled=True)


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
    fields.  ``law`` must be built for ``sys``.
    """
    _check_law_system(sys, law)
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


def _quadrature_channels(kappas, eps: float, quad_steps: int):
    """``(s, cos, sin)``: the grid of an even number of intervals over one
    period and the channels of the multipliers on it, amplitudes included."""
    if quad_steps < MIN_QUAD_STEPS:
        raise ValueError(f"quad_steps must be at least {MIN_QUAD_STEPS}")
    steps = quad_steps + (quad_steps % 2)  # Simpson wants an even count
    s = np.linspace(0.0, eps, steps + 1)
    cos, sin = oscillator_waves(kappas, 2.0 * math.pi / eps, s)
    amp = np.array([oscillator_amplitude(k, eps) for k in kappas])[:, None]
    cos *= amp
    sin *= amp
    return s, cos, sin


def _running_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of the samples ``y`` (at least 3, spacing ``h``)
    from 0: bit for bit ``scipy.integrate.cumulative_simpson(y, dx=h,
    initial=0)``.

    That rule integrates each interval ``[s, s + 1]`` over the parabola
    through three neighbouring samples, those from ``s`` on for even ``s``
    and those up to ``s + 1`` for odd ``s`` and for the last interval.
    scipy forms both candidates on every interval and keeps one; here only
    the kept ones are formed, with the same operations in the same order,
    and summed with a running sum from 0.
    """
    n = len(y)
    out = np.empty(n)
    out[0] = 0.0
    a, b, c = y[0:n - 2:2], y[1:n - 1:2], y[2::2]
    out[1:n - 1:2] = h / 3 * (5 * a / 4 + 2 * b - c / 4)
    out[2::2] = h / 3 * (5 * c / 4 + 2 * b - a / 4)
    if n % 2 == 0:
        out[-1] = h / 3 * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    return np.cumsum(out, out=out)


def coupling_matrix(kappas: Sequence[int], eps: float,
                    quad_steps: int) -> np.ndarray:
    """Antisymmetrized second-order iterated integrals of the oscillators
    at the multipliers ``kappas`` over one period ``eps``.

    Entry ``[a, b]`` is ``int f G - int g F`` for the cosine channel ``f``
    of ``kappas[a]``, the sine channel ``g`` of ``kappas[b]`` and their
    running integrals ``F``, ``G`` (:func:`_running_simpson`): the cosine
    against the sine in both orderings, difference taken.  Equal
    multipliers give -2 eps; distinct integer multipliers are orthogonal
    over the period and give zero up to quadrature error.  Repeated
    multipliers are accepted deliberately, so a resonant pair can be shown
    to couple.  The outer integrals are dot products of single rows with
    the composite-Simpson weights, so an entry depends only on its own two
    multipliers, bit for bit, and each channel is integrated once.
    ``quad_steps`` below ``MIN_QUAD_STEPS`` raises ``ValueError``.
    """
    s, cos, sin = _quadrature_channels(kappas, eps, quad_steps)
    h = s[1]
    w = np.full(len(s), 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    out = np.empty((len(kappas), len(kappas)))
    for c, g in enumerate(sin):
        iw = w * _running_simpson(g, h)
        out[:, c] = [f @ iw for f in cos]
        g *= w
    for r, f in enumerate(cos):
        i_r = _running_simpson(f, h)
        out[r] -= [gw @ i_r for gw in sin]
    return out


# --- artifact formats --------------------------------------------------------

@contextlib.contextmanager
def _overwrite(path):
    """Binary file object that rewrites ``path`` in place from offset 0.

    The file is opened without ``O_TRUNC``, with the mode ``open()`` creates
    files with, so it keeps its inode, permissions and hard links.  On exit,
    also when the body raises, a regular file longer than what was written
    is trimmed at the current position, so it holds only the new bytes.
    Other targets (``/dev/null``, a pipe, a FIFO) are never trimmed: they
    cannot be truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with os.fdopen(fd, "wb") as fh:
        try:
            yield fh
        finally:
            st = os.fstat(fd)
            # the size on disk counts flushed bytes only, so it exceeds the
            # position exactly when the old file was longer than the new one
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                fh.truncate()


def _write_csv(path, header: str, table) -> str:
    """CSV of the 2-D ``table`` under ``header``: 17 significant digits, LF.

    One loop writes ``CSV_CHUNK_ROWS`` rows at a time, formatted by the
    compiled library of :mod:`oscstab._fastpath` or, without it, by the
    Python ``%`` join below with the same bytes.  Returns which formatter
    ran: ``"compiled"`` or ``"python (<reason>)"``.  The file is rewritten
    in place (:func:`_overwrite`): a formatter that fails part way leaves
    the rows written so far and nothing of the old file.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    try:
        format_block = _fastpath.csv_formatter(min(rows, CSV_CHUNK_ROWS), cols)
        writer = "compiled"
    except _fastpath.KernelUnavailable as exc:
        line = ",".join(["%.17g"] * cols) + "\n"

        def format_block(block: np.ndarray) -> bytes:
            return "".join(line % tuple(r) for r in block.tolist()).encode()

        writer = f"python ({exc})"
    with _overwrite(path) as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            fh.write(format_block(table[start:start + CSV_CHUNK_ROWS]))
    return writer


def _write_json(path, payload) -> None:
    """JSON with indent 1, sorted keys, LF and a final newline.

    Encoded whole (ASCII: non-ASCII text is escaped) and written in one
    call, in place (:func:`_overwrite`)."""
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    with _overwrite(path) as fh:
        fh.write(text.encode("ascii"))


def write_trajectory_csv(traj: Trajectory, path) -> str:
    """CSV with header ``t,x1,...,xn,V,norm``; 17 significant digits, LF.
    Returns which writer ran, as :func:`_write_csv` does."""
    if traj.v is None:
        raise ValueError("trajectory has no V channel; integrate with a candidate")
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",V,norm"
    return _write_csv(path, header, np.column_stack(
        (traj.t, traj.states, traj.v, traj.norms)))


def write_windows_json(traj: Trajectory, path) -> None:
    """JSON array of ``{j, t, V, W, r_hat}`` window records."""
    if traj.windows is None:
        raise ValueError("trajectory has no window records")
    _write_json(path, traj.windows.to_json_list())
