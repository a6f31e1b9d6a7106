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
from oscstab.controller import pair_bracket_field, user_law
from oscstab.integrator import chen_fliess_predict
from oscstab.lyapunov import correction_field, decrease_rate
from oscstab.vecfield import lie_bracket, system_from_fields

from conftest import _dt, heis3_system


def reference_pair_fields(law, x) -> np.ndarray:
    sys_ = law.system
    vals, jac = law.vtilde_values_and_grads(x)
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
        vtilde=(lambda x: -0.5 * x[2] * (1.0 + 0.1 * x[0] * x[0]),))


def _curved_system():
    def f1(x):
        return np.array([1.0, 0.0, -x[1] + 0.2 * x[0] * x[2]], dtype=_dt(x))

    def f2(x):
        return np.array([0.0, 1.0 + 0.1 * x[2] * x[2], x[0]], dtype=_dt(x))

    return system_from_fields(3, 2, (f1, f2), ((1, 2),), name="curved3")


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
        vals = law.vtilde_values(x)
        for q in np.flatnonzero(vals == 0.0):
            assert np.all(got[q] == 0.0)
            zero_rows += 1
    assert zero_rows >= 20


def _nan_on_pair_24_law(bsys):
    q_bad = bsys.pairs.index((2, 4))

    def vt(q):
        if q == q_bad:
            return lambda x: float("nan")
        return lambda x: float(bk.brockett_vtilde(1.0, x)[q])

    def grad(q):
        def g(x):
            out = np.zeros(10)
            out[4 + q] = -0.5
            return out
        return g

    return user_law(bsys, 0.5, 0.1, v0=lambda x: -np.asarray(x[:4], dtype=float),
                    vtilde=tuple(vt(q) for q in range(6)),
                    vtilde_grads=tuple(grad(q) for q in range(6)))


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
                   vtilde=(lambda x: -0.5 * x[3],))
    x = np.array([0.3, -0.7, 0.2, 1.1])
    phi = correction_field(csys, law, x)
    assert take() == {"field": [1, 1, 0], "jacobian": [1, 1, 0]}
    assert np.all(np.isfinite(phi))
    ref = reference_pair_fields(dataclasses.replace(law, system=base), x)
    assert np.all(np.abs(pair_bracket_field(law, x) - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert take()["jacobian"] == [1, 1, 0]
