import numpy as np
import pytest

from oscstab.vecfield import (VectorFieldSystem, assemble_bracket_matrix,
                              bracket_generating_check, input_matrix,
                              lie_bracket, system_from_fields)

from conftest import (fd_bracket, heis3_system, merging_fields_system,
                      random_polynomial_system)


def test_brockett_pair_bracket_is_constant_2e5(bsys):
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-3, 3, 10)
        br = lie_bracket(bsys, 1, 2, x)
        assert np.allclose(br, 2.0 * np.eye(10)[4], atol=1e-12)


def test_bracket_antisymmetry_and_diagonal(bsys):
    rng = np.random.default_rng(2)
    sys_ = random_polynomial_system()
    for _ in range(10):
        x10 = rng.uniform(-2, 2, 10)
        x3 = rng.uniform(-2, 2, 3)
        assert np.array_equal(lie_bracket(bsys, 1, 3, x10),
                              -lie_bracket(bsys, 3, 1, x10))
        assert np.array_equal(lie_bracket(sys_, 1, 2, x3),
                              -lie_bracket(sys_, 2, 1, x3))
        assert np.allclose(lie_bracket(sys_, 1, 1, x3), 0.0, atol=1e-15)


def test_bracket_matches_finite_difference_oracle():
    sys_ = random_polynomial_system()
    x = np.array([0.3, -0.1, 0.7])
    analytic = lie_bracket(sys_, 1, 2, x)
    oracle = fd_bracket(sys_.fields[0], sys_.fields[1], x, h=1e-5)
    assert np.linalg.norm(analytic - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))


def test_dual_built_jacobians_match_analytic():
    analytic = random_polynomial_system()
    derived = system_from_fields(3, 2, analytic.fields, analytic.pairs)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(derived.jacobian(1, x), analytic.jacobian(1, x),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(lie_bracket(derived, 1, 2, x),
                           lie_bracket(analytic, 1, 2, x), rtol=1e-12, atol=1e-12)


def test_nilpotency_witness_brackets_constant(bsys):
    rng = np.random.default_rng(4)
    base = {pair: lie_bracket(bsys, *pair, np.zeros(10)) for pair in bsys.pairs}
    for _ in range(100):
        x = rng.uniform(-5, 5, 10)
        for pair in bsys.pairs:
            assert np.max(np.abs(lie_bracket(bsys, *pair, x) - base[pair])) <= 1e-12


def test_assemble_matrix_at_origin_is_diagonal(bsys):
    bm = assemble_bracket_matrix(bsys, np.zeros(10))
    assert np.allclose(bm.matrix, np.diag([1, 1, 1, 1, 2, 2, 2, 2, 2, 2]))
    assert np.isclose(bm.condition, 2.0)


def test_assemble_matrix_bracket_columns_constant(bsys):
    rng = np.random.default_rng(5)
    expect = np.zeros((10, 6))
    for q in range(6):
        expect[4 + q, q] = 2.0
    for _ in range(5):
        bm = assemble_bracket_matrix(bsys, rng.uniform(-4, 4, 10))
        assert np.allclose(bm.matrix[:, 4:], expect, atol=1e-12)


def test_column_order_follows_pair_set(bsys):
    x = np.array([0.7, -0.2, 1.1, 0.4, 0, 0, 0, 0, 0, 0], dtype=float)
    bm1 = assemble_bracket_matrix(bsys, x)
    bm2 = assemble_bracket_matrix(bsys, x)
    assert np.array_equal(bm1.matrix, bm2.matrix)
    for k in range(1, 5):
        assert np.array_equal(bm1.matrix[:, k - 1], bsys.field(k, x))
    for q, pair in enumerate(bsys.pairs):
        assert np.array_equal(bm1.matrix[:, 4 + q], lie_bracket(bsys, *pair, x))


def test_duplicate_columns_give_condition_sentinel():
    sys_ = merging_fields_system()
    bm = assemble_bracket_matrix(sys_, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(bm.matrix[:, 0], bm.matrix[:, 1])
    assert bm.condition == np.inf


def test_bracket_generating_brockett_everywhere(bsys):
    ok, smin = bracket_generating_check(bsys, np.zeros(10))
    assert ok and np.isclose(smin, 1.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-1, 1, 10)
        x *= 5.0 * rng.uniform() / np.linalg.norm(x)
        ok, smin = bracket_generating_check(bsys, x)
        assert ok and smin > 0


def test_bracket_generating_fails_on_rank_deficiency():
    ok, smin = bracket_generating_check(merging_fields_system(),
                                        np.array([1.0, 0.0, 0.0]))
    assert not ok
    assert smin <= 1e-12
    zero_bracket = heis3_system()
    ok0, _ = bracket_generating_check(zero_bracket, np.zeros(3))
    assert ok0  # the 3-state integrator does span


def test_index_and_state_validation(bsys):
    with pytest.raises(ValueError):
        lie_bracket(bsys, 0, 2, np.zeros(10))
    with pytest.raises(ValueError):
        lie_bracket(bsys, 1, 5, np.zeros(10))
    bad = np.zeros(10)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        lie_bracket(bsys, 1, 2, bad)
    with pytest.raises(ValueError):
        lie_bracket(bsys, 1, 2, np.zeros(9))


def test_construction_invariants():
    f = lambda x: np.array([1.0, 0.0, 0.0])
    g = lambda x: np.array([0.0, 1.0, 0.0])
    jz = lambda x: np.zeros((3, 3))
    # m = 1 cannot form a pair
    with pytest.raises(ValueError, match="bracket pair"):
        VectorFieldSystem(n=3, m=1, fields=(f,), jacobians=(jz,), pairs=())
    # pair count must be n - m
    with pytest.raises(ValueError, match="pair set"):
        VectorFieldSystem(n=3, m=2, fields=(f, g), jacobians=(jz, jz), pairs=())
    # duplicate pairs
    with pytest.raises(ValueError, match="duplicate"):
        VectorFieldSystem(n=4, m=2, fields=(f, g), jacobians=(jz, jz),
                          pairs=((1, 2), (1, 2)))
    # indices must satisfy 1 <= i < j <= m
    with pytest.raises(ValueError, match="bad pair"):
        VectorFieldSystem(n=3, m=2, fields=(f, g), jacobians=(jz, jz),
                          pairs=((2, 1),))
    # m < n
    with pytest.raises(ValueError, match="underactuation"):
        VectorFieldSystem(n=2, m=2, fields=(f, g), jacobians=(jz, jz), pairs=())
    # rank deficiency at the origin
    with pytest.raises(ValueError, match="rank deficient"):
        VectorFieldSystem(n=3, m=2, fields=(f, f), jacobians=(jz, jz),
                          pairs=((1, 2),))


def test_input_matrix_stacks_fields(bsys):
    x = np.arange(10.0)
    b = input_matrix(bsys, x)
    for k in range(1, 5):
        assert np.array_equal(b[:, k - 1], bsys.field(k, x))

