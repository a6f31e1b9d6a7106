import re

import numpy as np
import pytest

from oscstab import _block
from oscstab.cli import SPAN_RADIUS, RunConfig
from oscstab.sampling import Region, sample_region
from oscstab.vecfield import (JACOBIAN_ERROR, VectorFieldSystem,
                              _bracket_columns, _condition_1norm,
                              _contracted_jacobians, bracket_generating_check,
                              input_matrix, system_from_fields)

from conftest import (fd_bracket, heis3_system, merging_fields_system,
                      random_polynomial_system, ref_bracket)


def test_brockett_pair_bracket_is_constant_2e5(bsys):
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-3, 3, 10)
        br = _bracket_columns(bsys, x)[:, 4]
        assert np.allclose(br, 2.0 * np.eye(10)[4], atol=1e-12)


@pytest.mark.parametrize("name", ["brockett10", "heis3", "poly3"])
def test_one_point_contraction_rounds_as_separate_products(name, bsys):
    # at one point the Jacobians are stacked and contracted in one product;
    # each row must be its own vector-matrix product bit for bit, and a
    # non-finite Jacobian fails the point with zero rows
    sys_ = {"brockett10": bsys, "heis3": heis3_system(),
            "poly3": random_polynomial_system()}[name]
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, g = rng.uniform(-1.5, 1.5, (2, 1, sys_.n))
        w, ok = _contracted_jacobians(sys_.jacobians, x, g)
        assert ok.tolist() == [True]
        assert np.array_equal(w[0], np.concatenate(
            [g @ np.asarray(jac(x[0]), dtype=float) for jac in sys_.jacobians]))
    nan = np.full((sys_.n, sys_.n), np.nan)
    w, ok = _contracted_jacobians([*sys_.jacobians, lambda x: nan], x, g)
    assert ok.tolist() == [False]
    assert w.shape == (1, sys_.m + 1, sys_.n) and not w.any()


def test_bracket_matches_finite_difference_oracle():
    sys_ = random_polynomial_system()
    x = np.array([0.3, -0.1, 0.7])
    analytic = _bracket_columns(sys_, x)[:, 2]
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
        assert np.allclose(_bracket_columns(derived, x),
                           _bracket_columns(analytic, x), rtol=1e-12, atol=1e-12)


def test_nilpotency_witness_brackets_constant(bsys):
    rng = np.random.default_rng(4)
    base = _bracket_columns(bsys, np.zeros(10))[:, 4:]
    for _ in range(100):
        x = rng.uniform(-5, 5, 10)
        assert np.max(np.abs(_bracket_columns(bsys, x)[:, 4:] - base)) <= 1e-12


def test_assemble_matrix_at_origin_is_diagonal(bsys):
    mat = _bracket_columns(bsys, np.zeros(10))
    assert np.allclose(mat, np.diag([1, 1, 1, 1, 2, 2, 2, 2, 2, 2]))
    assert np.isclose(_condition_1norm(mat), 2.0)


def test_assemble_matrix_bracket_columns_constant(bsys):
    rng = np.random.default_rng(5)
    expect = np.zeros((10, 6))
    for q in range(6):
        expect[4 + q, q] = 2.0
    for _ in range(5):
        mat = _bracket_columns(bsys, rng.uniform(-4, 4, 10))
        assert np.allclose(mat[:, 4:], expect, atol=1e-12)


def test_column_order_follows_pair_set(bsys):
    x = np.array([0.7, -0.2, 1.1, 0.4, 0, 0, 0, 0, 0, 0], dtype=float)
    mat = _bracket_columns(bsys, x)
    assert np.array_equal(mat, _bracket_columns(bsys, x))
    for k in range(1, 5):
        assert np.array_equal(mat[:, k - 1], bsys.field(k, x))
    for q, pair in enumerate(bsys.pairs):
        assert np.array_equal(mat[:, 4 + q], ref_bracket(bsys, *pair, x))


def test_condition_matches_numpy_cond_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4, 10):
        for _ in range(50):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            near = a.copy()
            near[:, -1] = near[:, 0] * (1.0 + 1e-15 * rng.standard_normal())
            singular = a.copy()
            singular[-1] = 0.0
            for mat in (a, near, singular):
                assert _condition_1norm(mat) == np.linalg.cond(mat, 1)
    assert _condition_1norm(np.zeros((3, 3))) == np.inf
    assert _condition_1norm(np.array([[1.0, np.nan], [0.0, 1.0]])) == np.inf


def test_duplicate_columns_give_condition_sentinel():
    sys_ = merging_fields_system()
    mat = _bracket_columns(sys_, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(mat[:, 0], mat[:, 1])
    assert _condition_1norm(mat) == np.inf


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


def _span_sample(n: int) -> np.ndarray:
    """The points of ``oscstab verify``'s span check at the default knobs:
    the origin, then the sampled ball."""
    cfg = RunConfig()
    return np.vstack([np.zeros(n), sample_region(
        Region.ball(n, SPAN_RADIUS), cfg.span_n, r_min=0.0, seed=cfg.seed)])


@pytest.mark.parametrize("name", ["brockett10", "heis3 from fields"])
def test_block_span_check_is_the_per_row_check_bit_for_bit(bsys, name):
    # brockett10's callables run on the block; heis3 rebuilt from its field
    # closures indexes x[i] and derives its Jacobians by duals, so every
    # callable runs per row
    if name == "brockett10":
        sys_ = bsys
    else:
        h = heis3_system()
        sys_ = system_from_fields(3, 2, h.fields, h.pairs)
    assert _block.blockwise(sys_.jacobians[0], sys_.n) == (name == "brockett10")
    X = _span_sample(sys_.n)
    good, smin = bracket_generating_check(sys_, X)
    rows = [bracket_generating_check(sys_, x) for x in X]
    assert good.dtype == bool and good.all()
    assert np.array_equal(good, [r[0] for r in rows])
    assert np.array_equal(smin, [r[1] for r in rows])


@pytest.mark.parametrize("name", ["brockett10", "heis3 from fields", "poly3"])
def test_block_bracket_columns_are_the_point_columns(bsys, name):
    # the all-pair algebra of a block against the per-pair formula at each
    # row: bit for bit where every product has at most one nonzero term, and
    # on poly3, whose products sum in a different order, within a few
    # roundings of the magnitudes that enter each bracket entry
    h = heis3_system()
    sys_ = {"brockett10": bsys, "poly3": random_polynomial_system(),
            "heis3 from fields": system_from_fields(3, 2, h.fields, h.pairs),
            }[name]
    X = _span_sample(sys_.n)
    got = _bracket_columns(sys_, X)
    want = np.array([_bracket_columns(sys_, x) for x in X])
    assert got.shape == (len(X), sys_.n, sys_.n)
    if name != "poly3":
        assert np.array_equal(got, want)
        return
    m = sys_.m
    assert np.array_equal(got[:, :, :m], want[:, :, :m])
    for q, (i, j) in enumerate(sys_.pairs):
        scale = np.array([
            np.abs(sys_.jacobian(j, x)) @ np.abs(sys_.field(i, x))
            + np.abs(sys_.jacobian(i, x)) @ np.abs(sys_.field(j, x))
            for x in X])
        err = np.abs(got[:, :, m + q] - want[:, :, m + q])
        assert np.all(err <= 4 * np.finfo(float).eps * scale)


def _nan_jacobian_beyond(j, blockwise: bool):
    """``j`` where ``x_1 <= 1``, NaN where ``x_1 > 1``; on blocks or not."""
    if blockwise:
        def jac(x):
            out = np.array(np.broadcast_to(j, np.shape(x)[:-1] + j.shape))
            out[np.asarray(x)[..., 0] > 1.0] = np.nan
            return out
        return jac
    return lambda x: j if x[0] <= 1.0 else np.full(j.shape, np.nan)


@pytest.mark.parametrize("blockwise", [True, False])
def test_block_span_check_raises_as_the_point_path(blockwise):
    h = heis3_system()
    jac = _nan_jacobian_beyond(h.jacobians[0](np.zeros(3)), blockwise)
    sys_ = VectorFieldSystem(n=3, m=2, fields=h.fields,
                             jacobians=(jac, h.jacobians[1]), pairs=h.pairs)
    assert _block.blockwise(jac, 3) == blockwise
    X = np.random.default_rng(9).uniform(-0.5, 0.5, (5, 3))
    bad_state, bad_jac = X.copy(), X.copy()
    bad_state[3, 1] = np.nan
    bad_jac[2, 0] = 1.5
    for fn in (lambda x: _bracket_columns(sys_, x),
               lambda x: bracket_generating_check(sys_, x)):
        fn(X)
        for block, r, msg in ((bad_state, 3, "state has non-finite entries"),
                              (bad_jac, 2, JACOBIAN_ERROR)):
            for x in (block, block[r]):   # the block, then its bad row alone
                with pytest.raises(ValueError, match=re.escape(msg)):
                    fn(x)


def test_index_and_state_validation(bsys):
    bad = np.zeros(10)
    bad[3] = np.nan
    for fn in (lambda x: _bracket_columns(bsys, x),
               lambda x: bracket_generating_check(bsys, x)):
        with pytest.raises(ValueError, match="non-finite"):
            fn(bad)
        with pytest.raises(ValueError, match=r"got \(9,\)"):
            fn(np.zeros(9))
    # blocks need n columns and at least one row
    for block in (np.zeros((3, 9)), np.zeros((0, 10)), bad[None]):
        with pytest.raises(ValueError, match=r"got \(|non-finite"):
            bracket_generating_check(bsys, block)


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

