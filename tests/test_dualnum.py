import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscstab import dualnum
from oscstab.dualnum import Dual, gradient, jacobian, seed_state

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)


def test_seed_state_identity_tangents():
    x = seed_state(np.array([2.0, -1.0]))
    assert x[0].val == 2.0
    assert np.array_equal(x[0].grad, [1.0, 0.0])
    assert np.array_equal(x[1].grad, [0.0, 1.0])


@given(a=nonzero, b=nonzero)
@settings(max_examples=200)
def test_arithmetic_matches_calculus(a, b):
    x = Dual(a, np.array([1.0]))
    y = x * x + 3.0 * x - 2.0 / x + b
    assert math.isclose(y.val, a * a + 3 * a - 2 / a + b, rel_tol=1e-12)
    assert math.isclose(y.grad[0], 2 * a + 3 + 2 / a ** 2, rel_tol=1e-12)


@given(a=nonzero)
@settings(max_examples=200)
def test_abs_and_sign(a):
    x = Dual(a, np.array([1.0]))
    y = abs(x)
    assert y.val == abs(a)
    assert y.grad[0] == (1.0 if a > 0 else -1.0)
    assert dualnum.sign(x) == np.sign(a)


def test_sign_zero_convention():
    assert dualnum.sign(Dual(0.0, np.array([1.0]))) == 0.0
    assert dualnum.sign(0.0) == 0.0


def test_pow_at_zero_limits():
    x = Dual(0.0, np.array([2.0]))
    assert (x ** 2).grad[0] == 0.0
    assert (x ** 1).grad[0] == 2.0
    assert np.isnan((x ** 0.5).grad[0])


def test_elementary_functions_via_numpy_dispatch():
    x = seed_state(np.array([0.3, 1.2]))
    y = np.sin(x) + np.cos(x) * np.sqrt(x)
    expect = math.cos(0.3) - math.sin(0.3) * math.sqrt(0.3) \
        + math.cos(0.3) * 0.5 / math.sqrt(0.3)
    assert math.isclose(y[0].grad[0], expect, rel_tol=1e-12)
    assert y[0].grad[1] == 0.0


def test_gradient_of_scalar_closure():
    def f(x):
        return x[0] * x[1] + np.sin(x[2])

    val, g = gradient(f, np.array([2.0, -3.0, 0.5]))
    assert math.isclose(val, -6.0 + math.sin(0.5), rel_tol=1e-14)
    assert np.allclose(g, [-3.0, 2.0, math.cos(0.5)], rtol=1e-14)


def test_jacobian_of_vector_closure():
    def f(x):
        return np.array([x[0] * x[1], x[1] ** 2, 4.0], dtype=object)

    vals, jac = jacobian(f, np.array([2.0, 5.0]))
    assert np.allclose(vals, [10.0, 25.0, 4.0])
    assert np.allclose(jac, [[5.0, 2.0], [0.0, 10.0], [0.0, 0.0]])


def test_division_and_rsub():
    x = Dual(4.0, np.array([1.0]))
    y = 1.0 - 8.0 / x
    assert y.val == -1.0
    assert y.grad[0] == 0.5


def test_dual_exponent_rejected():
    with pytest.raises(TypeError):
        Dual(1.0, np.array([1.0])) ** Dual(2.0, np.array([0.0]))


def test_ndarray_operand_is_left_to_numpy():
    # a dual with an ndarray operand acts entry by entry, like a float does
    d = Dual(2.0, np.array([1.0, 0.0]))
    a = np.array([3.0, 4.0])
    cases = [(d * a, [6.0, 8.0], [3.0, 4.0]), (a * d, [6.0, 8.0], [3.0, 4.0]),
             (d + a, [5.0, 6.0], [1.0, 1.0]), (d - a, [-1.0, -2.0], [1.0, 1.0]),
             (d / a, [2.0 / 3.0, 0.5], [1.0 / 3.0, 0.25])]
    for got, vals, d0 in cases:
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert all(isinstance(e, Dual) for e in got)
        assert np.allclose([e.val for e in got], vals, rtol=1e-15)
        assert np.allclose([e.grad for e in got], np.column_stack([d0, [0, 0]]),
                           rtol=1e-15)


def test_nested_duals_give_second_derivatives():
    def f(x):
        return np.array([x[0] * x[1] * x[1], np.sin(x[0]) + np.sqrt(x[1])])

    x = np.array([0.7, 1.3])
    vals, jac = jacobian(f, seed_state(x))
    # the value carries the gradient of f, each Jacobian entry a Hessian row
    val, grad = dualnum.tangents(vals, 2)
    assert np.allclose(val, [0.7 * 1.3 ** 2, math.sin(0.7) + math.sqrt(1.3)],
                       rtol=1e-14)
    assert np.allclose(grad, [[1.3 ** 2, 2 * 0.7 * 1.3],
                              [math.cos(0.7), 0.5 / math.sqrt(1.3)]], rtol=1e-14)
    first, hess = dualnum.tangents(jac, 2)
    assert np.allclose(first, grad, rtol=1e-14)
    assert np.allclose(hess, [[[0.0, 2 * 1.3], [2 * 1.3, 2 * 0.7]],
                              [[-math.sin(0.7), 0.0], [0.0, -0.25 * 1.3 ** -1.5]]],
                       rtol=1e-14, atol=1e-15)
