"""All-pair bracket algebra against a per-pair reference.

The reference builds every pair-bracket field with its own loop over
``sys.field`` and ``lie_bracket``; the package evaluates all pairs at once
from one evaluation of each field and Jacobian.  The summation order
differs, so rows agree to a tolerance fixed in advance from float64
rounding: ``1e-12 * max(1, |ref|)`` per entry.
"""

import dataclasses

import numpy as np
import pytest

from oscstab import brockett as bk
from oscstab.controller import (pair_bracket_field, synthesize_components,
                                synthesized_law, user_law)
from oscstab.integrator import chen_fliess_predict, integrate_sampled
from oscstab.lyapunov import LyapunovSpec, correction_field, decrease_rate
from oscstab.vecfield import (VectorFieldSystem, lie_bracket,
                              system_from_fields)

from conftest import _dt, fd_jacobian, heis3_system


def reference_pair_fields(law, x) -> np.ndarray:
    sys_ = law.system
    vals, jac = law.profiles_jac(x)
    rows = []
    for q, (i, j) in enumerate(sys_.pairs):
        vt, gv = float(vals[q]), jac[q]
        if vt == 0.0:
            rows.append(np.zeros(sys_.n))
            continue
        fi, fj = sys_.field(i, x), sys_.field(j, x)
        rows.append(vt * lie_bracket(sys_, i, j, x)
                    + 0.5 * ((gv @ fi) * fj - (gv @ fj) * fi))
    return np.array(rows)


def _heis_profile_law(sys_):
    # profile with a state-dependent gradient; zero on the plane x[2] = 0
    return user_law(
        sys_, 0.5, 0.1, v0=lambda x: -np.asarray(x[:2], dtype=float),
        profiles=lambda x: np.array([-0.5 * x[2] * (1.0 + 0.1 * x[0] * x[0])]))


def _curved_fields():
    def f1(x):
        return np.array([1.0, 0.0, -x[1] + 0.2 * x[0] * x[2]], dtype=_dt(x))

    def f2(x):
        return np.array([0.0, 1.0 + 0.1 * x[2] * x[2], x[0]], dtype=_dt(x))

    return f1, f2


def _curved_system():
    return system_from_fields(3, 2, _curved_fields(), ((1, 2),), name="curved3")


def _curved_analytic_system():
    def j1(x):
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                         [0.2 * x[2], -1.0, 0.2 * x[0]]], dtype=_dt(x))

    def j2(x):
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.2 * x[2]],
                         [1.0, 0.0, 0.0]], dtype=_dt(x))

    return VectorFieldSystem(n=3, m=2, fields=_curved_fields(),
                             jacobians=(j1, j2), pairs=((1, 2),),
                             name="curved3-analytic")


CASES = {
    "brockett10-p1": lambda: bk.brockett_law(1.0, 0.5, 0.1),
    "brockett10-p1.5": lambda: bk.brockett_law(1.5, 0.5, 0.1),
    "heis3": lambda: _heis_profile_law(heis3_system()),
    "from-fields": lambda: _heis_profile_law(_curved_system()),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_all_pair_rows_match_per_pair_reference(case):
    law = CASES[case]()
    n, n_pairs = law.system.n, len(law.system.pairs)
    rng = np.random.default_rng(17)
    zero_rows = 0
    for k in range(60):
        x = rng.uniform(-2.0, 2.0, n)
        if k % 3 == 0:
            # put a profile on its sign switch: the bracket coordinate of a
            # case-study pair, or x[2] for the three-state profiles
            x[4 + k % n_pairs if n == 10 else 2] = 0.0
        ref = reference_pair_fields(law, x)
        got = pair_bracket_field(law, x)
        assert got.shape == (n_pairs, n)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        vals = law.profiles(x)
        for q in np.flatnonzero(vals == 0.0):
            assert np.all(got[q] == 0.0)
            zero_rows += 1
    assert zero_rows >= 20


def _nan_on_pair_24_law(bsys):
    q_bad = bsys.pairs.index((2, 4))

    def vt(x):
        out = bk.brockett_vtilde(1.0, x)
        out[q_bad] = float("nan")
        return out

    def jac(x):
        out = np.zeros((6, 10))
        out[:, 4:] = -0.5 * np.eye(6)
        return vt(x), out

    return user_law(bsys, 0.5, 0.1, v0=lambda x: -np.asarray(x[:4], dtype=float),
                    profiles=vt, profiles_jac=jac)


def test_nonfinite_profile_error_names_its_pair(bsys, lyap_p1):
    law = _nan_on_pair_24_law(bsys)
    x = np.linspace(0.3, 1.2, 10)
    for call in (lambda: decrease_rate(bsys, law, lyap_p1, x),
                 lambda: correction_field(bsys, law, x),
                 lambda: chen_fliess_predict(bsys, law, x)):
        with pytest.raises(ArithmeticError, match=r"pair \(2, 4\) not finite"):
            call()


def _counted(sys_):
    """Copy of ``sys_`` whose fields and Jacobians count their calls."""
    counts = {"field": [0] * sys_.m, "jacobian": [0] * sys_.m}

    def wrap(fn, kind, k):
        def counted(x):
            counts[kind][k] += 1
            return fn(x)
        return counted

    csys = dataclasses.replace(
        sys_,
        fields=tuple(wrap(f, "field", k) for k, f in enumerate(sys_.fields)),
        jacobians=tuple(wrap(d, "jacobian", k)
                        for k, d in enumerate(sys_.jacobians)))

    def take():
        out = {kind: list(c) for kind, c in counts.items()}
        for c in counts.values():
            c[:] = [0] * sys_.m
        return out

    take()  # drop the construction-time checks at the origin
    return csys, take


def test_each_field_and_jacobian_evaluated_once_per_point(bsys, lyap_p1, law_p1):
    csys, take = _counted(bsys)
    law = dataclasses.replace(law_p1, system=csys)
    x = np.linspace(-1.0, 1.3, 10)
    decrease_rate(csys, law, lyap_p1, x)
    counts = take()
    assert counts["jacobian"] == [1] * 4
    assert max(counts["field"]) <= 2     # drift once, brackets once
    correction_field(csys, law, x)
    assert take() == {"field": [1] * 4, "jacobian": [1] * 4}


def _three_input_one_pair():
    # n = 4, m = 3 with the single pair (1, 2): input 3 enters no bracket
    def f1(x):
        return np.array([1.0, 0.0, 0.0, -x[1]], dtype=_dt(x))

    def f2(x):
        return np.array([0.0, 1.0, 0.0, x[0]], dtype=_dt(x))

    def f3(x):
        return np.array([0.0, 0.0, 1.0, 0.0], dtype=_dt(x))

    return system_from_fields(4, 3, (f1, f2, f3), ((1, 2),), name="one-pair4")


def test_inputs_outside_every_pair_are_not_differentiated():
    base = _three_input_one_pair()
    # a Jacobian of input 3 that is never needed must not be evaluated
    sys_ = dataclasses.replace(
        base, jacobians=base.jacobians[:2] + (lambda x: np.full((4, 4), np.nan),))
    csys, take = _counted(sys_)
    law = user_law(csys, 0.5, 0.1, v0=lambda x: -np.asarray(x[:3], dtype=float),
                   profiles=lambda x: np.array([-0.5 * x[3]]))
    x = np.array([0.3, -0.7, 0.2, 1.1])
    phi = correction_field(csys, law, x)
    assert take() == {"field": [1, 1, 0], "jacobian": [1, 1, 0]}
    assert np.all(np.isfinite(phi))
    ref = reference_pair_fields(dataclasses.replace(law, system=base), x)
    assert np.all(np.abs(pair_bracket_field(law, x) - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert take()["jacobian"] == [1, 1, 0]


# --- synthesized laws on systems built from field closures ---------------------

def _quartic_candidate():
    # V = |x|^2 / 2 + x3^4 / 4: a gradient whose own derivative is not constant
    return LyapunovSpec(
        3, v=lambda x: 0.5 * float(x @ x) + 0.25 * float(x[2]) ** 4,
        grad=lambda x: np.array([x[0], x[1], x[2] + x[2] ** 3], dtype=_dt(x)))


FROM_FIELDS = {
    "heis3": lambda: (system_from_fields(3, 2, heis3_system().fields, ((1, 2),),
                                         name="heis3"), heis3_system()),
    "curved3": lambda: (_curved_system(), _curved_analytic_system()),
}


@pytest.mark.parametrize("case", sorted(FROM_FIELDS))
def test_synthesized_law_on_system_from_fields(case):
    # Jacobians derived by duals must match analytic ones through the
    # certificate and a sampled integration with window certificates
    fsys, asys = FROM_FIELDS[case]()
    lyap = _quartic_candidate()
    flaw = synthesized_law(fsys, lyap, 0.5, 0.1)
    alaw = synthesized_law(asys, lyap, 0.5, 0.1)
    rng = np.random.default_rng(19)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 3)
        got = np.array(decrease_rate(fsys, flaw, lyap, x))
        ref = np.array(decrease_rate(asys, alaw, lyap, x))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    x0 = np.array([0.4, -0.3, 0.5])
    got = integrate_sampled(fsys, flaw, x0, T=0.2, substeps=50, lyap=lyap)
    ref = integrate_sampled(asys, alaw, x0, T=0.2, substeps=50, lyap=lyap)
    assert got.n_windows == 2 and not got.diverged
    assert np.max(np.abs(got.states - ref.states)) <= 1e-12
    assert np.all(np.abs(got.windows.w - ref.windows.w)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref.windows.w)))


def test_synthesized_profile_jacobian_matches_finite_differences():
    sys_ = _curved_system()
    lyap = _quartic_candidate()
    law = synthesized_law(sys_, lyap, 0.5, 0.1)
    profiles = lambda y: synthesize_components(sys_, lyap, y)[1]
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 3)
        vals, jac = law.profiles_jac(x)
        assert jac.shape == (1, 3)
        assert np.all(np.abs(vals - profiles(x)) <= 1e-12)
        fd = fd_jacobian(profiles, x)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))
