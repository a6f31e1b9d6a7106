"""The Python CSV formatter, run without a compiler.

These tests make the compiled library unavailable, so they run on every
machine: ``integrator._write_csv`` must then write, block by block, the
bytes of ``"%.17g" % float(v)`` taken value by value, with memory bounded
by the block size rather than by the table's length.
"""

import tracemalloc

import numpy as np
import pytest

from oscstab import _fastpath, integrator

CHUNK = integrator.CSV_CHUNK_ROWS
REASON = "no compiler: disabled for the test"


def _no_kernel():
    raise _fastpath.KernelUnavailable(REASON)


@pytest.fixture
def python_writer(monkeypatch):
    monkeypatch.setattr(_fastpath, "kernel", _no_kernel)

    def write(path, header, table):
        assert integrator._write_csv(path, header, table) == f"python ({REASON})"

    return write


def _specials() -> np.ndarray:
    tiny = np.finfo(float).smallest_subnormal
    big = np.finfo(float).max
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001, 0xFFF0000000000001],
                    dtype=np.uint64).view(np.float64)
    assert np.signbit(nans).tolist() == [False, True, False, True]
    return np.concatenate([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                            3 * tiny, -1000 * tiny, big, -big], nans])


@pytest.mark.parametrize("rows", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_bytes_match_value_by_value_reference(tmp_path, python_writer, rows):
    cols = 13
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(
        -20, 20, rows * cols)
    specials = _specials()
    k = min(values.size, specials.size)
    # the specials lead the first row and close the last block
    values[:k] = values[values.size - k:] = specials[:k]
    table = values.reshape(rows, cols)
    want = "t,x\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in table)
    python_writer(tmp_path / "py.csv", "t,x", table)
    got = (tmp_path / "py.csv").read_bytes()
    assert got == want.encode()
    assert got.count(b"\n") == rows + 1
    if rows:
        assert got.splitlines()[1].split(b",")[:4] == [b"0", b"-0", b"inf",
                                                        b"-inf"]


def test_memory_is_bounded_by_the_block(tmp_path, python_writer):
    table = np.random.default_rng(0).standard_normal((65536, 13))
    tracemalloc.start()
    try:
        python_writer(tmp_path / "big.csv", "t,x", table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"
