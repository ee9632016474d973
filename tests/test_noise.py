"""Noise-layer tests.  Oracles: the closed-form Laplace transform, scipy's
independent stable distribution (KS), Monte-Carlo characteristic functions,
and direct summation."""

import math

import numpy as np
import pytest
from scipy import stats

from snse import noise as nz


def test_positive_stable_degenerate_index_one():
    rng = nz.substream(0, 0)
    for t in (0.5, 1.0, 2.5):
        assert nz.sample_positive_stable(1.0, t, rng) == t


def test_positive_stable_domain_errors():
    rng = nz.substream(0, 1)
    with pytest.raises(ValueError):
        nz.sample_positive_stable(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        nz.sample_positive_stable(1.2, 1.0, rng)
    with pytest.raises(ValueError):
        nz.sample_positive_stable(0.5, -1.0, rng)


def test_positive_stable_strictly_positive():
    rng = nz.substream(1, 0)
    X = nz._positive_stable_batch(0.6, 0.7, rng, 10**5)
    assert np.all(X > 0)


@pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
def test_positive_stable_laplace_transform(beta):
    a = beta / 2.0
    t = 0.3
    rng = nz.substream(42, 9, int(beta * 10))
    X = nz._positive_stable_batch(a, t, rng, 10**5)
    for r in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-r * X)))
        exact = math.exp(-t * r**a)
        assert abs(emp - exact) / exact < 0.01


def test_positive_stable_against_scipy_law():
    # independent oracle: scipy's one-sided stable with the scale that
    # matches E exp(-rX) = exp(-t r^a)
    a, t = 0.75, 1.0
    rng = nz.substream(1, 2)
    X = nz._positive_stable_batch(a, t, rng, 4000)
    scale = (t * math.cos(math.pi * a / 2.0)) ** (1.0 / a)
    ks = stats.kstest(X, lambda x: stats.levy_stable.cdf(x, a, 1.0, loc=0, scale=scale))
    assert ks.pvalue > 0.01


def test_subordinator_increments_add_in_distribution():
    # stationary independent increments: two half-steps ~ one full step
    a, dt = 0.7, 0.8
    rng = nz.substream(6, 0)
    half = nz._positive_stable_batch(a, dt / 2, rng, 10**4) + nz._positive_stable_batch(
        a, dt / 2, rng, 10**4
    )
    full = nz._positive_stable_batch(a, dt, rng, 10**4)
    ks = stats.ks_2samp(half, full)
    assert ks.pvalue > 0.01


def test_block_beta2_is_wiener():
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="const:1.0", lmax=2, seed=0)
    rng = nz.substream(7, 0)
    dt = 0.13
    draws = np.array([nz.levy_increment_block(spec, dt, rng).dL[1].real for _ in range(10**5)])
    b = nz.levy_increment_block(spec, dt, rng)
    assert b.dX == dt  # exactly, no subordination noise
    assert abs(np.var(draws) - dt) / dt < 0.02


def test_block_characteristic_function():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=3, seed=0)
    rng = nz.substream(3, 0)
    dt = 0.2
    coords = []
    for _ in range(20000):
        blk = nz.levy_increment_block(spec, dt, rng)
        coords.append(math.sqrt(2.0) * blk.dL[2].real)  # a real coordinate of (1,1)
    cf = float(np.mean(np.exp(1j * np.asarray(coords))).real)
    exact = math.exp(-dt * 2.0 ** (-1.5 / 2.0))
    assert abs(cf - exact) / exact < 0.01


def test_block_shared_clock_dependence():
    # squared increments correlate through the shared subordinator while the
    # raw increments stay (heavy-tail noisily) uncorrelated
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=3, seed=0)
    rng = nz.substream(3, 1)
    l1, l2 = [], []
    for _ in range(20000):
        blk = nz.levy_increment_block(spec, 0.2, rng)
        l1.append(math.sqrt(2.0) * blk.dL[2].real)
        l2.append(-math.sqrt(2.0) * blk.dL[2].imag)
    l1, l2 = np.asarray(l1), np.asarray(l2)
    assert np.corrcoef(l1**2, l2**2)[0, 1] > 0.05
    assert abs(np.corrcoef(l1, l2)[0, 1]) < 0.3


def test_block_layout_and_validation():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=3, seed=0)
    blk = nz.levy_increment_block(spec, 0.1, nz.substream(0, 5))
    assert blk.dL.shape == (10,)
    assert blk.dL[0] == 0.0          # l = 0 slot
    assert blk.dL[1].imag == 0.0     # m = 0 slots are real
    assert blk.dL[3].imag == 0.0
    with pytest.raises(ValueError):
        nz.levy_increment_block(spec, 0.0, nz.substream(0, 5))


def test_counter_streams_reproducible_and_order_free():
    spec = nz.NoiseSpec(beta=1.7, sigma_rule="const:1.0", lmax=4, seed=99)
    fwd = [nz.levy_increment_block(spec, 0.05, nz.substream(99, nz.PURPOSE_SUBSTEP, k)).dL
           for k in range(6)]
    bwd = [nz.levy_increment_block(spec, 0.05, nz.substream(99, nz.PURPOSE_SUBSTEP, k)).dL
           for k in reversed(range(6))]
    for k in range(6):
        assert np.array_equal(fwd[k], bwd[5 - k])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        nz.NoiseSpec(beta=0.0)
    with pytest.raises(ValueError):
        nz.NoiseSpec(beta=2.5)
    with pytest.raises(ValueError):
        nz.NoiseSpec(beta=1.5, delta=-0.1)
    with pytest.raises(ValueError):
        nz.NoiseSpec(beta=1.5, n_substeps=0)


def test_sigma_rule_parsing():
    r = nz.parse_sigma_rule("power:gamma=2.0")
    assert np.allclose(r(np.array([1.0, 2.0, 4.0])), [1.0, 0.25, 0.0625])
    r = nz.parse_sigma_rule("band:l<=8,value=0.1")
    assert r(8) == pytest.approx(0.1) and r(9) == 0.0
    r = nz.parse_sigma_rule("const:0.05")
    assert r(17) == pytest.approx(0.05)
    assert nz.parse_sigma_rule("zero")(3) == 0.0
    for bad in ("power:g=1", "band:l<8,value=1", "huh:1", "const:abc", "power"):
        with pytest.raises(ValueError):
            nz.parse_sigma_rule(bad)


def test_summability_zero_and_band():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", lmax=4)
    res = nz.check_summability(spec, 0.5)
    assert res == {"value": 0.0, "converged": True, "tail_bound": 0.0, "slope": None}
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.1", lmax=4)
    res = nz.check_summability(spec, 0.5)
    assert res["converged"] and res["tail_bound"] == 0.0
    expect = sum(0.1**1.5 * (l * (l + 1.0)) ** 0.75 for l in range(1, 9))
    assert res["value"] == pytest.approx(expect, rel=1e-12)


def test_summability_power_law_matches_direct_sum():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", lmax=4)
    res = nz.check_summability(spec, 0.5)
    ls = np.arange(1, 10**6 + 1, dtype=np.float64)
    direct = float(np.sum(ls**-3.0 * (ls * (ls + 1.0)) ** 0.75))
    assert res["converged"]
    assert abs(res["value"] - direct) / direct < 1e-6


def test_summability_divergent_has_diagnostic():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", lmax=4)
    res = nz.check_summability(spec, 0.5, include_multiplicity=True)
    assert not res["converged"]
    assert res["slope"] == pytest.approx(-0.5, abs=0.01)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.3", lmax=4)
    assert not nz.check_summability(spec, 0.0)["converged"]


def test_summability_verdict_cached_per_argument_set():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.5", lmax=4)
    first = nz.check_summability(spec, 0.25)
    first["converged"] = "mutated"
    before = nz._summability.cache_info()
    # another band limit or seed shares the verdict; the caller's copy is
    # its own
    again = nz.check_summability(nz.NoiseSpec(beta=1.5, seed=7, lmax=9,
                                              sigma_rule="power:gamma=2.5"),
                                 0.25)
    assert nz._summability.cache_info().hits == before.hits + 1
    assert again["converged"] is True and again is not first
    nz.check_summability(spec, 0.25, tol=1e-4)
    assert nz._summability.cache_info().misses == before.misses + 1


def test_moment_scaling_domain_error():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=2)
    with pytest.raises(ValueError):
        nz.moment_scaling_estimate(spec, 0.0, 1.5, [1.0], 10)
    with pytest.raises(ValueError):
        nz.moment_scaling_estimate(spec, 0.0, 1.8, [1.0], 10)


def test_moment_scaling_single_mode_slope():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", lmax=1, seed=5)
    est = nz.moment_scaling_estimate(spec, 0.0, 1.0, [0.25, 0.5, 1.0, 2.0, 4.0], 10**4)
    logs = np.log(np.array(est))
    slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
    assert slope == pytest.approx(1.0 / 1.5, abs=0.05)


def test_moment_scaling_monotone_in_t():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", lmax=6, seed=8)
    est = nz.moment_scaling_estimate(spec, 0.25, 1.0, [0.1, 1.0, 10.0], 4000)
    vals = [e[1] for e in est]
    assert vals[0] < vals[1] < vals[2]


def test_moment_scaling_truncated_two_mode_vs_bruteforce():
    # high-resolution brute-force MC oracle with a separate stream
    spec = nz.NoiseSpec(beta=1.6, sigma_rule="band:l<=2,value=1.0", lmax=2, seed=12)
    t = 0.7
    (_, est), = nz.moment_scaling_estimate(spec, 0.0, 1.0, [t], 2 * 10**5)
    rng = nz.substream(1234, 77)
    n = 10**6
    X = nz._positive_stable_batch(0.8, t, rng, n)
    # 3 + 5 real coordinates, all amplitude 1
    g = rng.standard_normal((n, 8))
    brute = float(np.mean(np.sqrt(X * (g**2).sum(axis=1))))
    assert abs(est - brute) / brute < 0.02
