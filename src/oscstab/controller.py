"""Time-varying oscillatory feedback laws.

The control has a time-invariant part ``v0`` driving descent of the Lyapunov
candidate where its gradient lies in the input span, plus, for every bracket
pair ``I = (i, j)``, an oscillatory part that excites the bracket direction:

    u_k(x, t) = v0_k(x) + gamma * sum_I v_k^I(x) * phi_k^I(t)

The pair components split a scalar profile ``vtilde^I`` as
``v_i = sqrt(|vtilde|)`` and ``v_j = sqrt(|vtilde|) * sign(vtilde)`` so their
product reproduces ``vtilde`` exactly; the oscillators are cosine on the
``i`` channel and sine on the ``j`` channel at a pair-specific integer
multiple of the base frequency, with distinct multipliers so that different
pairs do not cross-couple over a period.

Laws are either synthesized pointwise by solving
``F(x) * (v0, vtilde) = -grad V(x)^T`` against the bracket matrix ``F``, or
supplied in closed form by the caller; both modes share the same evaluation
path so they can cross-validate each other.  The synthesis solves with
LAPACK, and the profile Jacobian follows from differentiating the solve
implicitly, ``ds = -F^-1 (dF s + dg)`` (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 15), with ``dF`` and ``dg`` from one dual
evaluation of the bracket matrix and ``grad V``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _block, dualnum
from .vecfield import (JACOBIAN_ERROR, VectorFieldSystem, _bracket_columns,
                       _condition_1norm, _pair_brackets, _pair_rows,
                       input_matrix)

__all__ = [
    "OscillatorAssignment", "FeedbackLaw", "SynthesisError",
    "assign_frequencies", "oscillator_waves", "split_component",
    "synthesize_components", "synthesized_law", "user_law", "feedback_eval",
    "law_with_period", "pair_bracket_field", "drift_field",
    "oscillator_amplitude",
]

Pair = Tuple[int, int]


class SynthesisError(RuntimeError):
    """Feedback synthesis failed at a point (ill-conditioned bracket matrix).

    Raised out of an integration it also names the RK4 ``step``, its start
    time ``t`` and their ``window``; these are None otherwise.  A sampled
    integration evaluates the components once per window, at its start, so
    there the located step is the first step of the window.
    """

    def __init__(self, msg: str, condition: float, step: Optional[int] = None,
                 t: Optional[float] = None, window: Optional[int] = None):
        if step is not None:
            msg = f"{msg} (at step {step}, t={t!r}, window {window})"
        super().__init__(msg)
        self.condition = condition
        self.step, self.t, self.window = step, t, window


def _check_multipliers(kappas: Sequence[int]) -> Tuple[int, ...]:
    """``kappas`` as ints; each a Python or numpy integer >= 1, no bool."""
    kappas = tuple(kappas)
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
               and k >= 1 for k in kappas):
        raise ValueError(f"frequency multipliers must be integers >= 1, "
                         f"got {kappas}")
    return tuple(int(k) for k in kappas)


def assign_frequencies(pairs: Sequence[Pair],
                       override: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
    """Integer frequency multipliers for the pair set, in pair order.

    Defaults to 1, 2, ..., |S|.  An override is accepted as long as the
    multipliers are positive integers and pairwise distinct (resonant
    assignments would couple different bracket pairs).
    """
    if len(pairs) == 0:
        raise ValueError("pair set must be nonempty")
    if override is None:
        return tuple(range(1, len(pairs) + 1))
    kappas = _check_multipliers(override)
    if len(kappas) != len(pairs):
        raise ValueError("need one frequency multiplier per pair")
    if len(set(kappas)) != len(kappas):
        raise ValueError(f"duplicate frequency multipliers: {kappas}")
    return kappas


def oscillator_amplitude(kappa: int, eps: float) -> float:
    """Amplitude ``2 sqrt(kappa pi / eps)`` of an oscillator at multiplier
    ``kappa``: it makes a pair's cosine-sine iterated integral ``-2 eps``."""
    return 2.0 * math.sqrt(kappa * math.pi / eps)


@dataclass(frozen=True)
class OscillatorAssignment:
    """Pair set with frequency multipliers and the common period."""

    pairs: Tuple[Pair, ...]
    kappas: Tuple[int, ...]
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"period eps must be finite and positive, "
                             f"got {self.eps}")
        # kappas may be None (the defaults) or any sequence: validated once,
        # here, however constructed, and kept as a tuple
        object.__setattr__(self, "kappas",
                           assign_frequencies(self.pairs, self.kappas))

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.eps

    def amplitude(self, q: int) -> float:
        return oscillator_amplitude(self.kappas[q], self.eps)


def oscillator_waves(kappas: Sequence[int], omega: float, t: np.ndarray):
    """``(cos, sin)`` of ``kappa_q omega t``, shape (len(kappas), len(t)) for
    a 1-D array ``t``: a pair's channels are its rows times its amplitude,
    cosine on the pair's first input and sine on its second."""
    th = np.multiply.outer(np.asarray(kappas) * omega, t)
    return np.cos(th), np.sin(th, out=th)


def split_component(vt):
    """Split a scalar profile into the two pair channels.

    Returns ``(sqrt(|vt|), sqrt(|vt|) * sign(vt))`` with ``sign(0) = 0`` so
    the control stays continuous through sign switches; the product of the
    two values reproduces ``vt`` up to rounding.
    """
    if vt == 0.0:
        return 0.0, 0.0
    r = math.sqrt(abs(vt))
    return r, math.copysign(r, vt)


# --- pointwise synthesis from a Lyapunov gradient ---------------------------

_MAX_CONDITION = 1e12
_RESIDUAL_TOL = 1e-10


def _solve(mat: np.ndarray, g: np.ndarray, x) -> np.ndarray:
    """Solution of ``mat @ s = -g``, refused when ill-conditioned and
    checked against the residual tolerance."""
    cond = _condition_1norm(mat)
    if not cond < _MAX_CONDITION:
        raise SynthesisError(
            f"bracket matrix too ill-conditioned at x={x.tolist()} "
            f"(condition {cond:.3e})", cond)
    sol = np.linalg.solve(mat, -g)
    res = float(np.linalg.norm(mat @ sol + g))
    if res > _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(g))):
        raise SynthesisError(
            f"synthesis residual {res:.3e} exceeds tolerance at x={x.tolist()}",
            cond)
    return sol


def synthesize_components(sys: VectorFieldSystem, lyap, x):
    """Solve the bracket matrix against ``-grad V`` at one point.

    Returns ``(v0, vtilde)``: the first ``m`` entries of the solution and the
    per-pair profiles in pair order.  The solve is refused when the 1-norm
    condition number exceeds 1e12 (``inf`` for a singular matrix), and the
    residual is checked against ``1e-10 * max(1, ||grad V||)``.
    """
    x = np.asarray(x, dtype=float)
    sol = _solve(_bracket_columns(sys, x),
                 np.asarray(lyap.grad(x), dtype=float), x)
    return sol[:sys.m], sol[sys.m:]


def _synthesized_profiles_jac(sys: VectorFieldSystem, lyap, x):
    """``(v0, vtilde, jac)``: the synthesized components and the profile
    Jacobian, shapes (m,), (|S|,) and (|S|, n).

    One dual evaluation gives ``F``, ``g = grad V`` and their derivatives;
    the solution ``s`` and its derivative ``ds = -F^-1 (dF s + dg)`` then
    come from float solves with the checks of :func:`synthesize_components`.
    """
    x = np.asarray(x, dtype=float)
    xd = dualnum.seed_state(x)
    mat, dmat = dualnum.tangents(_bracket_columns(sys, xd), sys.n)
    g, dg = dualnum.tangents(lyap.grad(xd), sys.n)
    sol = _solve(mat, g, x)
    # column k: (dF/dx_k) s + dg/dx_k, the x_k-derivative of F s + g at fixed s
    dsol = -np.linalg.solve(mat, np.einsum("ijk,j->ik", dmat, sol) + dg)
    return sol[:sys.m], sol[sys.m:], dsol[sys.m:]


@dataclass(frozen=True)
class FeedbackLaw:
    """Immutable bundle of control components for one system.

    ``components(x)`` returns ``(v0, vtilde)``: the time-invariant part,
    shape (m,), and the scalar pair profiles in pair order, shape (|S|,).
    ``components_jac(x)`` returns ``(v0, vtilde, jac)`` with the profile
    Jacobian ``jac`` of shape (|S|, n), for the certificate and prediction
    code.  A synthesized law gets both halves from one solve per call.
    Either callable may also take a (k, n) float block and return its
    results stacked per row; construction probes which does
    (:func:`oscstab._block.probe`).  Evaluation is pure and reentrant, so
    laws are safe to share across sweep workers.  No field picks the
    integration path: the compiled kernel recognises the one law it runs.
    """

    system: VectorFieldSystem
    gamma: float
    assignment: OscillatorAssignment
    components: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    components_jac: Callable[[np.ndarray],
                             Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.assignment.pairs != self.system.pairs:
            raise ValueError("assignment pairs must match the system pair set")
        for fn in (self.components, self.components_jac):
            _block.probe(fn, self.system.n)

    @property
    def eps(self) -> float:
        return self.assignment.eps


def _check_law_system(sys: VectorFieldSystem, law: FeedbackLaw) -> None:
    """Refuse a law built for another system than ``sys``."""
    if sys is not law.system and sys != law.system:
        built, given = (f"{s.name or 'unnamed'} (n={s.n}, m={s.m})"
                        for s in (law.system, sys))
        raise ValueError(f"law was built for system {built}, not for {given}")


def synthesized_law(sys: VectorFieldSystem, lyap, gamma: float, eps: float,
                    kappas: Optional[Sequence[int]] = None) -> FeedbackLaw:
    """Law whose components solve the bracket matrix against ``-grad V``.

    ``lyap.grad`` must accept a state of duals (see :mod:`oscstab.dualnum`)
    for the profile Jacobian.
    """
    assignment = OscillatorAssignment(sys.pairs, kappas, eps)
    return FeedbackLaw(
        system=sys, gamma=float(gamma), assignment=assignment,
        components=lambda x: synthesize_components(sys, lyap, x),
        components_jac=lambda x: _synthesized_profiles_jac(sys, lyap, x),
    )


def user_law(sys: VectorFieldSystem, gamma: float, eps: float,
             v0: Callable[[np.ndarray], np.ndarray],
             profiles: Callable[[np.ndarray], np.ndarray],
             profiles_jac: Optional[Callable] = None,
             kappas: Optional[Sequence[int]] = None) -> FeedbackLaw:
    """Law with caller-supplied closed-form components.

    ``profiles(x)`` returns one profile per bracket pair, in pair order;
    this is checked once, at the origin.  Without ``profiles_jac`` the
    Jacobian comes from dual evaluation of ``profiles``, which must then
    stick to dual-compatible operations.  The components must satisfy the
    same split identities as synthesized ones; nothing else is assumed.

    Closures written on the last axis (``x[..., c]``), so that a (k, n)
    block gives the stacked per-point results, pass the block probe of
    :class:`FeedbackLaw` and run once per block of points in the scans;
    others run once per point.  A dual-derived Jacobian runs per point.
    """
    assignment = OscillatorAssignment(sys.pairs, kappas, eps)
    if np.shape(profiles(np.zeros(sys.n))) != (len(sys.pairs),):
        raise ValueError("need one profile per bracket pair")
    if profiles_jac is None:
        profiles_jac = lambda x: dualnum.jacobian(profiles, x)
    return FeedbackLaw(
        system=sys, gamma=float(gamma), assignment=assignment,
        components=lambda x: (v0(x), profiles(x)),
        components_jac=lambda x: (v0(x), *profiles_jac(x)))


def law_with_period(law: FeedbackLaw, eps: float) -> FeedbackLaw:
    """Same components and frequency multipliers, new oscillation period."""
    return replace(law, assignment=replace(law.assignment, eps=float(eps)))


def feedback_eval(law: FeedbackLaw, x, t: float | np.ndarray) -> np.ndarray:
    """Control vector ``u(x, t)``; the time origin is the simulation start.

    ``t`` is a float, giving shape (m,), or a 1-D array of ``k`` times,
    giving shape (k, m) with row ``r`` the control at ``t[r]``: the
    components are evaluated once at ``x`` for all times, which is what a
    sampled window with its frozen state argument needs.
    """
    x = np.asarray(x, dtype=float)
    v0, vts = law.components(x)
    u = np.array(v0, dtype=float, copy=True)
    if u.shape != (law.system.m,):
        raise ValueError("v0 must return one value per input")
    many = isinstance(t, np.ndarray)
    if law.gamma == 0.0:
        return np.tile(u, (len(t), 1)) if many else u
    a = law.assignment
    if many:
        # accumulate as (m, k) so that ``u[i - 1]`` is a channel either way
        u = np.repeat(u[:, None], len(t), axis=1)
        waves = oscillator_waves(a.kappas, a.omega, t)
    vts = np.asarray(vts, dtype=float)
    for q, (i, j) in enumerate(a.pairs):
        vt = vts[q]
        if not np.isfinite(vt):
            raise ArithmeticError(f"profile for pair {a.pairs[q]} "
                                  f"is not finite at x={x.tolist()}")
        vi, vj = split_component(vt)
        if many:
            cos, sin = waves[0][q], waves[1][q]
        else:
            th = a.kappas[q] * a.omega * t
            cos, sin = math.cos(th), math.sin(th)
        amp = a.amplitude(q)
        u[i - 1] += law.gamma * vi * amp * cos
        u[j - 1] += law.gamma * vj * amp * sin
    return u.T if many else u


# --- closed-loop field algebra ----------------------------------------------

def drift_field(law: FeedbackLaw, x) -> np.ndarray:
    """Averaged drift ``g_0(x) = sum_k v0_k(x) f_k(x)``."""
    x = np.asarray(x, dtype=float)
    return input_matrix(law.system, x) @ np.asarray(law.components(x)[0],
                                                    dtype=float)


def _pair_bracket_terms(sys: VectorFieldSystem, X, vals, jac, f=None, g=None):
    """Input brackets and pair-bracket fields of all pairs at a block of points.

    ``X`` has shape (k, n), the profile values ``vals`` (k, |S|) and their
    gradient rows ``jac`` (k, |S|, n); ``f`` and ``g`` are passed on to
    ``vecfield._pair_brackets``, which evaluates each field and Jacobian at
    every point, once per block where it passed the block probe.  Returns
    ``(B, P, fail)``: ``B[r, q]`` is ``[f_i, f_j]`` and ``P[r, q]`` the
    bracket of the two oscillatory fields of pair ``q`` at ``X[r]`` (see
    :func:`pair_bracket_field`), both of shape (k, |S|, n); with the
    covector block ``g`` (k, n) they are the projections ``g . B`` and
    ``g . P``, of shape (k, |S|), formed without the vectors.
    ``fail`` is None when every point passes the checks, else ``(r, exc)``
    for the first failing point ``r``: ``ValueError`` for a non-finite
    Jacobian, which comes first at one point, else ``ArithmeticError``
    naming the first pair with a non-finite live profile or gradient.  The
    failing terms are left out, so that row of ``P`` is not meaningful.
    """
    f, b, jac_ok = _pair_brackets(sys, X, f, g)
    _, _, i, j = _pair_rows(tuple(map(tuple, sys.pairs)))
    live = vals != 0.0
    fail = None
    if not (jac_ok.all() and np.isfinite(vals).all()
            and np.isfinite(jac).all()):
        bad = live & ~(np.isfinite(vals) & np.isfinite(jac).all(axis=2))
        r = int(np.argmax(~jac_ok | bad.any(axis=1)))
        if not jac_ok[r] or bad[r].any():
            fail = (r, ValueError(JACOBIAN_ERROR) if not jac_ok[r] else
                    ArithmeticError(
                        f"profile or gradient for pair "
                        f"{sys.pairs[int(np.argmax(bad[r]))]} "
                        f"not finite at x={X[r].tolist()}"))
            live &= ~bad
            vals = np.where(live, vals, 0.0)
    all_live = live.all()
    if not all_live:
        # gradient rows at switch points may be anything; their rows are
        # zeroed
        jac = np.where(live[..., None], jac, 0.0)
    gf = jac @ f.swapaxes(1, 2)  # grad vtilde_q . f_b, (k, |S|, U)
    q = np.arange(len(i))
    gi, gj = gf[:, q, i], gf[:, q, j]
    if g is None:
        vals, gi, gj = vals[..., None], gi[..., None], gj[..., None]
    else:
        f = (f @ g[..., None])[..., 0]  # g . f_b, (k, U)
    p = vals * b + 0.5 * (gi * f[:, j] - gj * f[:, i])
    if not all_live:
        p[~live] = 0.0
    return b, p, fail


def pair_bracket_field(law: FeedbackLaw, x) -> np.ndarray:
    """Brackets of the two oscillatory fields of every pair, shape (|S|, n).

    Row ``q`` belongs to pair ``q`` in pair order.  For ``g_i = v_i f_i`` and
    ``g_j = v_j f_j`` with the split components,

        [g_i, g_j] = vtilde [f_i, f_j]
                     + (grad vtilde . f_i) f_j / 2
                     - (grad vtilde . f_j) f_i / 2,

    using that ``v_i grad v_j`` and ``v_j grad v_i`` both reduce to
    ``grad vtilde / 2`` away from sign switches.  At a switch point
    (``vtilde = 0``) every term carries a vanishing split factor and the row
    is exactly zero; the affected terms of downstream certificates vanish
    there by the same convention.  Each input field and Jacobian is
    evaluated once for all pairs.  A non-finite profile or gradient on a
    pair away from a switch raises ``ArithmeticError`` naming the pair.
    """
    X = np.asarray(x, dtype=float)[None]
    _, vals, jac = _block.rows(law.components_jac, X)
    _, p, fail = _pair_bracket_terms(law.system, X, vals, jac)
    if fail is not None:
        raise fail[1]
    return p[0]
