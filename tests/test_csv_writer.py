"""The compiled CSV formatter writes the bytes of the Python writer.

Every case writes one table through ``integrator._write_csv`` twice: once
through the compiled formatter and once with the library made unavailable,
which runs the Python ``%`` writer, and compares the files byte for byte.
"""

from decimal import Decimal

import numpy as np
import pytest

from oscstab import _fastpath, integrator

from conftest import needs_cc

pytestmark = needs_cc

CHUNK = integrator.CSV_CHUNK_ROWS


def _unavailable(*args):
    raise _fastpath.KernelUnavailable("no compiler: disabled for the test")


def _both(tmp_path, monkeypatch, table: np.ndarray, header: str = "a,b"):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    assert integrator._write_csv(fast, header, table) == "compiled"
    with monkeypatch.context() as m:
        m.setattr(_fastpath, "csv_formatter", _unavailable)
        assert integrator._write_csv(slow, header, table) == \
            "python (no compiler: disabled for the test)"
    return fast.read_bytes(), slow.read_bytes()


def _assert_same(tmp_path, monkeypatch, values, cols: int = 1) -> None:
    """``values`` as a table of ``cols`` columns; a mismatch names its row."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    fast, slow = _both(tmp_path, monkeypatch, table)
    if fast != slow:
        lines = zip(fast.splitlines()[1:], slow.splitlines()[1:], table)
        bad = [(f, s, [v.tobytes().hex() for v in row])
               for f, s, row in lines if f != s]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[:3]}")


def _bits(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns(tmp_path, monkeypatch):
    # every exponent, both signs, nan payloads and subnormals included
    rng = np.random.default_rng(13)
    _assert_same(tmp_path, monkeypatch,
                 rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
                 .view(np.float64), cols=10)


def test_scaled_normals_and_float32_values(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    wide = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-30, 30, 200_000)
    _assert_same(tmp_path, monkeypatch,
                 np.concatenate([wide, wide.astype(np.float32)]), cols=10)


def test_special_values(tmp_path, monkeypatch):
    tiny = np.finfo(float).smallest_subnormal
    normal = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                        np.nextafter(normal, 0.0), -np.nextafter(normal, 0.0),
                        normal, np.finfo(float).max, -np.finfo(float).max])
    # quiet and signalling nans with either sign bit: Python prints "nan"
    nans = _bits([0x7FF8000000000000, 0xFFF8000000000000,
                  0x7FF0000000000001, 0xFFF0000000000001])
    assert np.signbit(nans).tolist() == [False, True, False, True]
    _assert_same(tmp_path, monkeypatch, np.concatenate([special, nans]))
    fast, _ = _both(tmp_path, monkeypatch, nans.reshape(1, -1))
    assert fast.splitlines()[1] == b"nan,nan,nan,nan"


def test_exact_ties_round_half_to_even(tmp_path, monkeypatch):
    # dyadic values whose exact decimal has 18 significant digits ending
    # in 5: the 17-digit result is a tie, broken towards an even last digit
    cands = [s * (c + a * 2.0 ** -k) for k in range(1, 70)
             for a in range(1, 200, 2) for c in (0.0, 1.0, 3.0)
             for s in (1.0, -1.0)]
    ties, ups = [], 0
    for v in cands:
        digits = Decimal(v).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5 and 1e-16 <= abs(v) < 1e17:
            ties.append(v)
            ups += digits[-2] % 2
    assert len(ties) >= 600 and 0 < ups < len(ties)   # both directions
    _assert_same(tmp_path, monkeypatch, ties)


def test_decade_round_ups_and_layout_switches(tmp_path, monkeypatch):
    # the double nearest 1e-14 lies below it and rounds up a decade
    assert Decimal(1e-14) < Decimal("1e-14")
    edges = [99999999999999999.0, 9.9999999999999999e-5, 1e-14,
             1e-4, 1e-5, 1e16, 1e17, 1e-16, 1e-17]
    vals = [np.nextafter(v, t) for v in edges for t in (0.0, v, np.inf)]
    vals += [10.0 ** e * m for e in range(-20, 21)
             for m in (1.0, 9.999999999999998, 1.0000000000000002)]
    vals = np.array(vals)
    _assert_same(tmp_path, monkeypatch, np.concatenate([vals, -vals]))
    fast, _ = _both(tmp_path, monkeypatch,
                    np.array([[1e-14, 1e-4, 1e-5, 1e16, 1e17]]))
    assert fast.splitlines()[1] == \
        b"1e-14,0.0001,1.0000000000000001e-05,10000000000000000,1e+17"


def test_decimal_exponent_thresholds(tmp_path, monkeypatch):
    # every binade of the exact range: its ends and the mantissas just below
    # and at the one from which "%.17g" prints the next decimal exponent;
    # then the first binade beyond the range on each side
    table = _fastpath.DECIMAL_EXPONENTS
    exps = [e for e, _, _ in table]
    assert exps == list(range(exps[0], exps[-1] + 1))
    assert table[0][1] < -16 <= table[1][1] and table[-1][1] == 16
    pats, steps = [], 0
    for e, x, t in table:
        if t < 2 ** 53:
            steps += 1
            below, at = (np.ldexp(float(m), e - 52) for m in (t - 1, t))
            assert ("%.16e" % below).endswith(f"e{x:+03d}")
            assert ("%.16e" % at).endswith(f"e{x + 1:+03d}")
        mants = [2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1] + (
            [t - 1, t] if t < 2 ** 53 else [])
        pats += [(e + 1023 << 52) | (m - 2 ** 52) for m in mants]
    # one per power of ten from 1e-16 to 1e17 but 1, which starts a binade
    assert steps == 33
    for e in (exps[0] - 1, exps[-1] + 1):
        pats += [(e + 1023 << 52) | m for m in (0, 1, 2 ** 51, 2 ** 52 - 1)]
    vals = _bits(pats)
    _assert_same(tmp_path, monkeypatch, np.concatenate([vals, -vals]))


@pytest.mark.parametrize("rows, cols", [(0, 13), (0, 1), (5, 1), (1201, 13),
                                        (2 * CHUNK + 3, 13), (CHUNK, 2),
                                        (3, 0)])
def test_table_shapes(tmp_path, monkeypatch, rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -8, 8, (rows, cols))
    fast, slow = _both(tmp_path, monkeypatch, table, header="t,x")
    assert fast == slow
    assert fast.count(b"\n") == rows + 1


def test_non_contiguous_and_integer_tables(tmp_path, monkeypatch):
    table = (np.arange(60.0) / 7.0).reshape(6, 10)[::2, ::3]
    assert not table.flags.c_contiguous
    fast, slow = _both(tmp_path, monkeypatch, table)
    assert fast == slow
    fast, slow = _both(tmp_path, monkeypatch, np.arange(12).reshape(4, 3))
    assert fast == slow and fast.splitlines()[1] == b"0,1,2"
