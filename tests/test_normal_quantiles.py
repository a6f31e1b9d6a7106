"""The ball scans' normal quantiles: the compiled library's Cephes ``ndtri``
against ``scipy.special.ndtri`` bit for bit, and the scipy fallback when the
library is declined."""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtri

from oscstab import _fastpath, cli, integrator, sampling
from oscstab.sampling import Region, sample_region

from conftest import needs_cc

DECLINED = "no compiler: declined for the test"


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


def _neighbours(v, k=64):
    """``v`` and its ``k`` float neighbours on either side."""
    out = [v]
    lo = hi = v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return np.array(out)


@needs_cc
def test_compiled_ndtri_is_scipys_bit_for_bit():
    compiled = _fastpath.normal_quantiles()
    rng = np.random.default_rng(20261020)
    # 10^7 uniforms, and 2 10^6 values in each tail down to exp(-34.5), in
    # blocks that keep the memory small
    for _ in range(10):
        u = rng.random(10 ** 6)
        assert _same_bits(compiled(u), ndtri(u))
    for _ in range(2):
        tail = np.exp(-rng.uniform(0.0, 34.5, 10 ** 6))
        for y in (tail, 1.0 - tail):
            assert _same_bits(compiled(y), ndtri(y))
    # the sampler's clip edges, both splits of the algorithm (exp(-2) on
    # either side, x = 8 at exp(-32)), the ends and outside the domain; a
    # NaN comes back with scipy's sign bit
    special = np.concatenate([
        [1e-15, 1.0 - 1e-15, 0.0, -0.0, 1.0, 0.5, 5e-324, 2.2e-308,
         math.nextafter(1.0, 0.0), -1.0, 2.0, np.inf, -np.inf, np.nan,
         -np.nan],
        _neighbours(math.exp(-2)), _neighbours(1.0 - math.exp(-2)),
        _neighbours(math.exp(-32)), _neighbours(1.0 - math.exp(-32))])
    assert _same_bits(compiled(special), ndtri(special))
    block = rng.random((7, 3))
    assert compiled(block).shape == (7, 3)
    assert _same_bits(compiled(block), ndtri(block))


@needs_cc
def test_declined_library_gives_the_same_ball_points_through_scipy(
        tmp_path, monkeypatch):
    regions = [(Region.ball(10, 2.0), 1e-6, 2024), (Region.ball(3, 1.0), 0.0, 7),
               (Region.ball(1, 5.0), 0.5, 11)]
    assert sampling.normal_quantiles()[1] == "compiled"
    compiled = [sample_region(r, 257, r_min, seed)
                for r, r_min, seed in regions]
    kw = dict(negdef_n=256, gain_n=128, c1_n=64, span_n=16, quad_steps=10_000)
    want, _ = cli.verify(cli.RunConfig(outdir=str(tmp_path / "c"), **kw))
    assert want["normal_quantiles"] == "compiled"
    assert want["oscillator_quadrature"] == "compiled"
    # kernel() keeps its first outcome; a declined one is that cache holding
    # the reason, which monkeypatch puts back afterwards
    monkeypatch.setattr(_fastpath, "_kernel", DECLINED)
    monkeypatch.setattr(integrator, "_fallback_warned", True)
    # the generic stepper runs the order probe: one coarse pair of 150 and
    # 300 steps per period keeps it short
    monkeypatch.setattr(integrator, "MIN_SUBSTEPS_PER_KAPPA", 25)
    monkeypatch.setattr(integrator, "PROBE_START", 150)
    monkeypatch.setattr(integrator, "PROBE_SUBSTEPS", 150)
    assert sampling.normal_quantiles()[1] == f"scipy ({DECLINED})"
    for (r, r_min, seed), pts in zip(regions, compiled):
        assert _same_bits(sample_region(r, 257, r_min, seed), pts)
    got, _ = cli.verify(cli.RunConfig(outdir=str(tmp_path / "s"), **kw))
    written = json.loads((tmp_path / "s" / "verify.json").read_text())
    assert got["normal_quantiles"] == written["normal_quantiles"] == (
        f"scipy ({DECLINED})")
    assert got["oscillator_quadrature"] == (
        written["oscillator_quadrature"]) == f"numpy ({DECLINED})"
    # the scans see the same points, so they read the same values, and the
    # numpy quadrature gives the compiled one's bits
    for name in ("span", "certificate_negdef", "gain_bound",
                 "synthesis_margin", "oscillators"):
        assert got["checks"][name] == want["checks"][name], name
