"""Block evaluation of the user callables: the probe, its fallbacks and an
oracle of the block path against the per-point path."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from oscstab import _block, _fastpath
from oscstab import brockett as bk
from oscstab.controller import (feedback_eval, law_with_period,
                                oscillator_amplitude, oscillator_waves,
                                synthesized_law, user_law)
from oscstab.integrator import (_quadrature_channels, _running_simpson,
                                coupling_matrix, integrate_sampled,
                                quadrature_path)
from oscstab.lyapunov import (LyapunovSpec, correction_ratio_sup,
                              decrease_rate, gain_bound_scan)
from oscstab.sampling import Region
from oscstab.vecfield import VectorFieldSystem

from conftest import (SMALL_BLOCK, _dt, heis3_system, needs_cc, per_point,
                      random_polynomial_system)


def _rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):    # inf - inf where both are inf
        close = np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))
    return a.shape == b.shape and bool(np.all((a == b) | close))


# --- which callables pass ------------------------------------------------------

def test_case_study_callables_pass_the_probe(bsys, law_p1, lyap_p15):
    for fn in (*bsys.fields, *bsys.jacobians, law_p1.components,
               law_p1.components_jac, lyap_p15.v, lyap_p15.grad):
        assert _block.blockwise(fn, 10)


def test_per_point_callables_fail_the_probe(bsys, lyap_p1):
    # x[i] indexing, ragged arrays and dual-derived Jacobians stay per point
    for sys_ in (heis3_system(), random_polynomial_system()):
        for fn in (*sys_.fields, *sys_.jacobians):
            assert not _block.blockwise(fn, 3)
    slaw = synthesized_law(bsys, lyap_p1, 0.5, 0.1)
    assert not _block.blockwise(slaw.components, 10)
    assert not _block.blockwise(slaw.components_jac, 10)


def test_probe_block_is_not_square():
    for n in (2, 3, 10):
        k, m = _block._probe_block(n).shape
        assert m == n and k != n and k >= 2


def test_rebuilding_around_the_same_callables_does_not_probe_again(law_p1):
    calls = []

    def components(x):
        calls.append(np.ndim(x))
        return law_p1.components(x)

    law = dataclasses.replace(law_p1, components=components)
    assert calls and _block.blockwise(law.components, 10)
    calls.clear()
    law_with_period(law, 0.05)
    dataclasses.replace(law, gamma=0.25)
    assert calls == []


# --- fallbacks -------------------------------------------------------------------

def _heis3_blocks():
    """heis3 written on the last axis: every callable evaluates blocks."""
    def f1(x):
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=_dt(x))
        out[..., 0] = 1.0
        out[..., 2] = -x[..., 1]
        return out

    def f2(x):
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=_dt(x))
        out[..., 1] = 1.0
        out[..., 2] = x[..., 0]
        return out

    ref = heis3_system()
    j1, j2 = (d(np.zeros(3)) for d in ref.jacobians)

    def const(j):
        return lambda x: np.broadcast_to(j, np.shape(x)[:-1] + j.shape)

    sys_ = VectorFieldSystem(n=3, m=2, fields=(f1, f2),
                             jacobians=(const(j1), const(j2)),
                             pairs=((1, 2),), name="heis3-blocks")

    def components_jac(x):
        x = np.asarray(x, dtype=float)
        vt = -0.5 * x[..., 2:3]
        jac = np.zeros(x.shape[:-1] + (1, 3))
        jac[..., 0, 2] = -0.5
        return -x[..., :2], vt, jac

    law = user_law(sys_, 0.5, 0.1, v0=lambda x: components_jac(x)[0],
                   profiles=lambda x: components_jac(x)[1],
                   profiles_jac=lambda x: components_jac(x)[1:])
    lyap = LyapunovSpec(3, v=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
                        grad=lambda x: np.array(x, dtype=float))
    return sys_, law, lyap


def _raising(fn):
    return per_point(fn)


def _shifted(fn):
    # right shape, wrong values: a block result off by 1e-9, which is beyond
    # the probe tolerance of 1e-12 * max(1, |value|)
    def wrapped(x):
        out = fn(x)
        if np.ndim(x) == 1:
            return out
        if isinstance(out, tuple):
            return tuple(np.asarray(a) + 1e-9 for a in out)
        return np.asarray(out) + 1e-9
    return wrapped


def _warning(fn):
    # right values, but a RuntimeWarning on every block call
    def wrapped(x):
        if np.ndim(x) != 1:
            warnings.warn("block evaluation is approximate", RuntimeWarning)
        return fn(x)
    return wrapped


def _wrapped_case(wrap):
    sys_, law, lyap = _heis3_blocks()
    wsys = dataclasses.replace(sys_, fields=tuple(map(wrap, sys_.fields)),
                               jacobians=tuple(map(wrap, sys_.jacobians)))
    wlaw = dataclasses.replace(law, system=wsys,
                               components=wrap(law.components),
                               components_jac=wrap(law.components_jac))
    wlyap = LyapunovSpec(3, v=wrap(lyap.v), grad=wrap(lyap.grad))
    return wsys, wlaw, wlyap


def _callables(sys_, law, lyap):
    return (*sys_.fields, *sys_.jacobians, law.components, law.components_jac,
            lyap.v, lyap.grad)


def _outcomes(sys_, law, lyap):
    region = Region.ball(3, 1.0)
    n = SMALL_BLOCK + 5
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (n, 3))
    gb = gain_bound_scan(sys_, law, lyap, region, n, seed=2)
    cs = correction_ratio_sup(sys_, law, lyap, 0.5, region, n, seed=2)
    traj = integrate_sampled(sys_, law, np.array([0.3, -0.2, 0.4]), T=0.2,
                             substeps=50, lyap=lyap)
    return (tuple(decrease_rate(sys_, law, lyap, pts)),
            (gb.ratio_sup, gb.gamma_max, gb.report.violations,
             gb.report.worst_value), tuple(cs), traj.v, traj.windows.w)


@pytest.mark.parametrize("wrap", [_raising, _shifted, _warning],
                         ids=["raises", "wrong-values", "warns"])
@pytest.mark.usefixtures("small_blocks")
def test_probe_failures_fall_back_to_per_point_with_unchanged_results(wrap):
    ref_case = _heis3_blocks()
    assert all(_block.blockwise(fn, 3) for fn in _callables(*ref_case))
    case = _wrapped_case(wrap)    # builds without raising or warning
    assert not any(_block.blockwise(fn, 3) for fn in _callables(*case))
    for got, want in zip(_outcomes(*case), _outcomes(*ref_case)):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_row_indexing_callable_fails_the_probe():
    # the x[i] trap: x[1] is a coordinate of one state but a row of a block;
    # on a square block the result even has the right shape
    swap = lambda x: np.stack([x[1], -x[0]], axis=-1)
    assert swap(np.ones((2, 2))).shape == (2, 2)
    lyap = LyapunovSpec(2, v=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
                        grad=swap)
    assert _block.blockwise(lyap.v, 2)
    assert not _block.blockwise(lyap.grad, 2)


def test_a_warning_on_a_block_leaves_the_warning_filters_alone():
    # pyproject turns RuntimeWarning into an error; the probe must swallow
    # the one it provokes and leave the filter in force afterwards
    _wrapped_case(_warning)
    with pytest.raises(RuntimeWarning):
        warnings.warn("still an error", RuntimeWarning)


# --- oracle: block path against the per-point path ---------------------------

@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.usefixtures("small_blocks")
def test_block_scans_match_per_point_scans(p):
    sys_, lyap, law = bk.brockett_system(), bk.brockett_lyapunov(p), \
        bk.brockett_law(p, 0.5, 0.1)
    psys = dataclasses.replace(
        sys_, fields=tuple(map(per_point, sys_.fields)),
        jacobians=tuple(map(per_point, sys_.jacobians)))
    plaw = dataclasses.replace(law, system=psys,
                               components=per_point(law.components),
                               components_jac=per_point(law.components_jac))
    plyap = LyapunovSpec(10, v=per_point(lyap.v), grad=per_point(lyap.grad))
    # two different paths run
    assert all(_block.blockwise(fn, 10) for fn in _callables(sys_, law, lyap))
    assert not any(_block.blockwise(fn, 10)
                   for fn in _callables(psys, plaw, plyap))
    n = 3 * SMALL_BLOCK + 17
    for region in (Region.ball(10, 2.0), Region.ball(10, 1.0)):
        blk = gain_bound_scan(sys_, law, lyap, region, n, seed=11)
        ref = gain_bound_scan(psys, plaw, plyap, region, n, seed=11)
        assert _rel_close(blk.ratio_sup, ref.ratio_sup)
        assert _rel_close(blk.gamma_max, ref.gamma_max)
        assert blk.report.violations == ref.report.violations
        assert blk.report.n_samples == ref.report.n_samples
        assert _rel_close(blk.report.worst_value, ref.report.worst_value)
        assert np.array_equal(blk.report.worst_point, ref.report.worst_point)
        blk_c = correction_ratio_sup(sys_, law, lyap, 0.5, region, n, seed=11)
        ref_c = correction_ratio_sup(psys, plaw, plyap, 0.5, region, n, seed=11)
        assert _rel_close(blk_c.sup, ref_c.sup)
        assert blk_c.skipped == ref_c.skipped


def test_stacked_copies_broadcast_jacobians_once(bsys):
    # brockett10's constant Jacobians return read-only broadcast views of
    # one matrix; the stack holds its own writable copy, which
    # vecfield._pair_brackets zeroes in place at rows with a bad Jacobian
    X = np.random.default_rng(21).uniform(-1.0, 1.0, (SMALL_BLOCK, bsys.n))
    views = [jac(X) for jac in bsys.jacobians]
    assert all(v.strides[0] == 0 and not v.flags.writeable for v in views)
    got = _block.stacked(bsys.jacobians, X)
    assert got.shape == (SMALL_BLOCK, bsys.m, bsys.n, bsys.n)
    assert got.flags.c_contiguous and got.flags.writeable
    assert not any(np.shares_memory(got, v) for v in views)
    assert np.array_equal(got, [[jac(x) for jac in bsys.jacobians]
                                for x in X])
    got[3] = 0.0


# --- oscillator couplings ------------------------------------------------------

def _reference_coupling(ka, kb, eps, quad_steps):
    # one coupling from scratch: both channels and both running integrals
    # by scipy's Simpson on N and on N/2 intervals, then one Richardson step
    steps = -(-quad_steps // 4) * 4
    om = 2.0 * math.pi / eps

    def simpson_coupling(n):
        s = np.linspace(0.0, eps, n + 1)
        fa = oscillator_amplitude(ka, eps) * np.cos(ka * om * s)
        fb = oscillator_amplitude(kb, eps) * np.sin(kb * om * s)
        fwd = simpson(fa * cumulative_simpson(fb, x=s, initial=0.0), x=s)
        rev = simpson(fb * cumulative_simpson(fa, x=s, initial=0.0), x=s)
        return float(fwd - rev)

    fine, coarse = simpson_coupling(steps), simpson_coupling(steps // 2)
    return fine + (fine - coarse) / 15.0


def test_coupling_matrix_matches_single_couplings_bit_for_bit(law_p1):
    a = law_p1.assignment
    got = coupling_matrix(a.kappas, a.eps, 10_000)
    assert got.shape == (6, 6)
    amps = [a.amplitude(q) for q in range(6)]
    for qa, ka in enumerate(a.kappas):
        for qb, kb in enumerate(a.kappas):
            # an entry depends only on its own two multipliers: the two-
            # oscillator matrix gives it bit for bit
            assert coupling_matrix((ka, kb), a.eps, 10_000)[0, 1] \
                == got[qa, qb]
            # Simpson weights against scipy's unequal-interval sums: the
            # same rule summed in another order, a few roundings apart
            want = _reference_coupling(ka, kb, a.eps, 10_000)
            assert abs(got[qa, qb] - want) \
                <= 1e-15 * amps[qa] * amps[qb] * a.eps * a.eps
    # repeated multipliers keep their meaning: a resonant pair couples
    same = coupling_matrix((3, 3), 0.1, 10_001)[0, 1]
    assert abs(same - _reference_coupling(3, 3, 0.1, 10_001)) <= 1e-15
    assert abs(same + 0.2) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 101, 1000, 10_001, 10_002])
def test_running_simpson_is_scipys_rule_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3, -0.0):     # -0.0: signed zeros throughout
        y = scale * rng.standard_normal(n)
        h = float(rng.uniform(1e-4, 1.0))
        want = cumulative_simpson(y, dx=h, initial=0)
        got = _running_simpson(y, h)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_quadrature_channels_are_the_feedback_oscillators(bsys, law_p1):
    # a unit profile on pair q and no v0: the feedback on the quadrature grid
    # is pair q's two channels, which the oscillator check integrates
    a = law_p1.assignment
    s, cos, sin = _quadrature_channels(a.kappas, a.eps, 10_000)
    assert s[-1] == a.eps and len(s) == 10_001
    for q, (i, j) in enumerate(a.pairs):
        unit = np.eye(len(a.pairs))[q]
        law = user_law(bsys, 1.0, a.eps, lambda x: np.zeros(bsys.m),
                       lambda x, unit=unit: unit,
                       lambda x, unit=unit: (unit, np.zeros((6, bsys.n))))
        u = feedback_eval(law, np.zeros(bsys.n), s)
        assert np.array_equal(u[:, i - 1], cos[q])
        assert np.array_equal(u[:, j - 1], sin[q])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@needs_cc
@pytest.mark.parametrize("kappas", [(1, 2, 3, 4, 5, 6), (2, 3, 5, 7, 11, 13),
                                    (3, 3), (1, 2, 6)])
def test_compiled_quadrature_is_numpys_bit_for_bit(kappas, monkeypatch):
    compiled = {}
    for eps in (0.1, 0.05, 0.025):
        omega = 2.0 * math.pi / eps
        amp = np.array([oscillator_amplitude(k, eps) for k in kappas])
        for steps in (4000, 4001, 4002, 10_000, 10_001, 20_000):
            s, cos, sin = _quadrature_channels(kappas, eps, steps)
            *got, integral = _fastpath.oscillator_quadrature(
                s, np.asarray(kappas) * omega, amp)
            for mine, wave in zip(got, oscillator_waves(kappas, omega, s)):
                assert _same_bits(mine, wave * amp[:, None])
            # the running integrals of the grid and of its every other sample
            for y, h in [(y, s[1]) for y in (*got[0], *got[1])] \
                    + [(y[::2].copy(), s[2]) for y in (*got[0], *got[1])]:
                want = _running_simpson(y, h)
                assert _same_bits(want, cumulative_simpson(y, dx=h, initial=0))
                assert _same_bits(integral(y, h), want)
            compiled[eps, steps] = coupling_matrix(kappas, eps, steps)
    assert quadrature_path() == "compiled"
    # kernel() keeps its first outcome: a declined library is that cache
    # holding the reason, which monkeypatch puts back afterwards
    monkeypatch.setattr(_fastpath, "_kernel", "no compiler: declined")
    assert quadrature_path() == "numpy (no compiler: declined)"
    for (eps, steps), want in compiled.items():
        assert _same_bits(coupling_matrix(kappas, eps, steps), want)


@needs_cc
def test_compiled_running_integral_is_numpys_on_any_length():
    # coupling_matrix's grids have odd lengths; the C rule also keeps
    # scipy's last interval of an even count
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6, 7, 8, 101, 10_002):
        s = np.linspace(0.0, rng.uniform(0.01, 1.0), n)
        _, _, integral = _fastpath.oscillator_quadrature(s, np.ones(1),
                                                         np.ones(1))
        for y in (rng.standard_normal(n), -0.0 * rng.standard_normal(n)):
            assert _same_bits(integral(y, s[1]), _running_simpson(y, s[1]))
            # any shorter row of 3 or more samples, in the same buffer
            assert _same_bits(integral(y[:3], 0.5), _running_simpson(y[:3], 0.5))
    for y in (np.ones(2), np.ones(10_003), np.ones((3, 3))):
        with pytest.raises(ValueError, match="does not fit the grid"):
            integral(y, 1.0)
    for s, kw in ((np.zeros(2), np.ones(1)), (np.zeros(3), np.ones(2))):
        with pytest.raises(ValueError, match="3 or more samples"):
            _fastpath.oscillator_quadrature(s, kw, np.ones(1))
