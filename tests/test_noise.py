"""Noise-layer tests.  Oracles: the closed-form Laplace transform, scipy's
independent stable distribution (KS), Monte-Carlo characteristic functions,
and direct summation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from snse import noise as nz
import snse.solver as sol
from snse.cli import path_seeds
from snse.operators import OperatorContext

from oracles import gaussian_mode_increments


def test_positive_stable_degenerate_index_one():
    rng = nz.substream(0, 0)
    for t in (0.5, 1.0, 2.5):
        assert nz._positive_stable_batch(1.0, t, rng, ()) == t


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
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="const:1.0", seed=0)
    rng = nz.substream(7, 0)
    dt = 0.13
    draws = np.array([nz.levy_increment_block(spec, dt, rng, lmax=2).dL[1].real
                      for _ in range(10**5)])
    b = nz.levy_increment_block(spec, dt, rng, lmax=2)
    assert b.dX == dt  # exactly, no subordination noise
    assert abs(np.var(draws) - dt) / dt < 0.02


def test_block_characteristic_function():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=0)
    rng = nz.substream(3, 0)
    dt = 0.2
    coords = []
    for _ in range(20000):
        blk = nz.levy_increment_block(spec, dt, rng, lmax=3)
        coords.append(math.sqrt(2.0) * blk.dL[2].real)  # a real coordinate of (1,1)
    cf = float(np.mean(np.exp(1j * np.asarray(coords))).real)
    exact = math.exp(-dt * 2.0 ** (-1.5 / 2.0))
    assert abs(cf - exact) / exact < 0.01


def test_block_shared_clock_dependence():
    # squared increments correlate through the shared subordinator while the
    # raw increments stay (heavy-tail noisily) uncorrelated
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=0)
    rng = nz.substream(3, 1)
    l1, l2 = [], []
    for _ in range(20000):
        blk = nz.levy_increment_block(spec, 0.2, rng, lmax=3)
        l1.append(math.sqrt(2.0) * blk.dL[2].real)
        l2.append(-math.sqrt(2.0) * blk.dL[2].imag)
    l1, l2 = np.asarray(l1), np.asarray(l2)
    assert np.corrcoef(l1**2, l2**2)[0, 1] > 0.05
    assert abs(np.corrcoef(l1, l2)[0, 1]) < 0.3


def test_block_layout_and_validation():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=0)
    blk = nz.levy_increment_block(spec, 0.1, nz.substream(0, 5), lmax=3)
    assert blk.dL.shape == (10,)
    assert blk.dL[0] == 0.0          # l = 0 slot
    assert blk.dL[1].imag == 0.0     # m = 0 slots are real
    assert blk.dL[3].imag == 0.0
    with pytest.raises(ValueError):
        nz.levy_increment_block(spec, 0.0, nz.substream(0, 5), lmax=3)


def test_block_beta2_draws_no_clock():
    # deterministic clock: dX == dt and the generator's first bits go to
    # the Gaussians
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="const:1.0", seed=0)
    blk = nz.levy_increment_block(spec, 0.3, nz.substream(4, 2), lmax=3)
    assert type(blk.dX) is float and blk.dX == 0.3
    ref = gaussian_mode_increments(nz.substream(4, 2), 0.3, 3)
    assert np.array_equal(blk.dL, ref)


def test_block_is_clock_then_gaussians():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=0)
    blk = nz.levy_increment_block(spec, 0.2, nz.substream(4, 3), lmax=3)
    rng = nz.substream(4, 3)
    dX = float(nz._positive_stable_batch(0.75, 0.2, rng, ()))
    assert type(blk.dX) is float and blk.dX == dX
    assert np.array_equal(blk.dL, gaussian_mode_increments(rng, dX, 3))
    assert blk.dL.shape == (10,) and blk.dL[0] == 0.0
    with pytest.raises(ValueError):
        nz.LevyIncrementBlock(dX=-1e-3, dL=blk.dL)


@pytest.mark.parametrize("beta", [1.2, 1.5, 2.0])
@pytest.mark.parametrize("lmax", [12, 64])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_a_stacked_row_is_its_own_paths_block(k, lmax, beta):
    # row i of a chunk's block has the bits of path i's block alone, and of
    # its draws in one-path order (clock U and E on a 0-d array, then the
    # Gaussians), whatever the chunk size
    spec = nz.NoiseSpec(beta=beta, sigma_rule="const:1.0")
    seeds, index, dt = [3 + 5 * i for i in range(k)], 17, 0.05
    stack = nz.levy_increment_block(
        spec, dt, [nz.substream(s, nz.PURPOSE_SUBSTEP, index) for s in seeds],
        lmax=lmax)
    assert stack.dX.shape == (k,) and stack.dL.shape == (k, nz.n_modes(lmax))
    for i, seed in enumerate(seeds):
        alone = nz.levy_increment_block(
            spec, dt, nz.substream(seed, nz.PURPOSE_SUBSTEP, index), lmax=lmax)
        rng = nz.substream(seed, nz.PURPOSE_SUBSTEP, index)
        dX = float(nz._positive_stable_batch(beta / 2.0, dt, rng, ()))
        dL = gaussian_mode_increments(rng, dX, lmax)
        for block in (alone, nz.LevyIncrementBlock(dX=dX, dL=dL)):
            assert np.float64(block.dX).tobytes() == stack.dX[i].tobytes()
            assert block.dL.tobytes() == stack.dL[i].tobytes()
    with pytest.raises(ValueError):
        nz.LevyIncrementBlock(dX=np.where(np.arange(k) == k // 2, -1e-3,
                                          stack.dX), dL=stack.dL)


def test_tail_sum_partial_plus_tail():
    partial, tail, slope = nz._tail_sum(lambda l: l**-2.0, 1, 10**5)
    assert partial + tail == pytest.approx(math.pi**2 / 6.0, abs=1e-9)
    assert slope == pytest.approx(-2.0, abs=1e-9)
    assert nz._tail_sum(lambda l: 1.0 / l, 1, 10**5)[1] == math.inf
    partial, tail, slope = nz._tail_sum(np.zeros_like, 1, 10**5)
    assert (partial, tail, slope) == (0.0, 0.0, None)


def test_counter_streams_reproducible_and_order_free():
    spec = nz.NoiseSpec(beta=1.7, sigma_rule="const:1.0", seed=99)
    fwd = [nz.levy_increment_block(spec, 0.05, nz.substream(99, nz.PURPOSE_SUBSTEP, k),
                                   lmax=4).dL
           for k in range(6)]
    bwd = [nz.levy_increment_block(spec, 0.05, nz.substream(99, nz.PURPOSE_SUBSTEP, k),
                                   lmax=4).dL
           for k in reversed(range(6))]
    for k in range(6):
        assert np.array_equal(fwd[k], bwd[5 - k])


# seeds of one to seven 32-bit words, across the pool size of four, and
# the path seeds of a 16-path ensemble at seed 1
KEY_SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 - 1, 2**128 + 5,
              2**200] + path_seeds(1, 16))
KEY_COUNTERS = [0, 1, 255, 256, 2**31, 2**32 - 1]


@pytest.mark.parametrize("purpose", [nz.PURPOSE_SUBSTEP, nz.PURPOSE_MC, 0])
def test_spawn_keys_are_seed_sequences_philox_keys(purpose):
    keys = nz.spawn_keys(KEY_SEEDS, (purpose,), KEY_COUNTERS)
    assert keys.dtype == np.uint64
    assert keys.shape == (len(KEY_SEEDS), len(KEY_COUNTERS), 2)
    for i, seed in enumerate(KEY_SEEDS):
        for j, c in enumerate(KEY_COUNTERS):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, c))
            assert keys[i, j].tobytes() == ss.generate_state(2, np.uint64).tobytes()
    # a counter of two words has another entropy length: refused
    for bad in ([2**32], [5, 2**32 + 1], [-1]):
        with pytest.raises(ValueError, match="counter"):
            nz.spawn_keys([3], (purpose,), bad)


def test_a_negative_seed_is_refused():
    # SeedSequence refuses it, so no stream has a key for it: spawn_keys
    # refuses it too, and with it every stream and every path run on it
    with pytest.raises(ValueError, match="seed"):
        nz.spawn_keys([-1], (1,), [0])
    with pytest.raises(ValueError, match="seed"):
        nz.substream(-1, 1, 0)
    with pytest.raises(ValueError, match="seed"):
        nz.SubstepStreams([2, -1]).at(0)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5)
    with pytest.raises(ValueError, match="seed"):
        sol.run(sol.SolverConfig(dt=0.1, t_end=0.2), spec, [-1],
                ctx=OperatorContext(4))


def test_a_key_word_of_two_words_is_refused():
    # SeedSequence splits a key word of 2^32 or more into two entropy
    # words, which spawn_keys does not mix: refused, not keyed otherwise
    for lead in [(2**32 + 3,), (1, 2**32), (-1,)]:
        with pytest.raises(ValueError, match="key word"):
            nz.spawn_keys([1], lead, [0])
    with pytest.raises(ValueError, match="key word"):
        nz.substream(1, 2**32 + 3, 0)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**130])
def test_substream_and_path_seeds_give_seed_sequences_bits(seed):
    # SeedSequence is the oracle of the one key derivation, spawn_keys
    for key in [(0,), (9, 15), (nz.PURPOSE_MC, 0, 3)]:
        gen = nz.substream(seed, *key)
        ref = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key)))
        for draw in ("uniform", "standard_exponential", "standard_normal"):
            assert (getattr(gen, draw)(size=4).tobytes()
                    == getattr(ref, draw)(size=4).tobytes()), (key, draw)
    want = [np.random.SeedSequence(seed, spawn_key=(nz.PURPOSE_PATH, i))
            .generate_state(4, np.uint32).tobytes() for i in range(16)]
    assert path_seeds(seed, 16) == [int.from_bytes(w, "little") for w in want]


def test_a_rekeyed_stream_draws_what_a_fresh_substream_draws():
    # each generator has drawn before it is re-keyed, one of them a uint32
    # that leaves the other half of its 64-bit draw buffered (has_uint32)
    streams = nz.SubstepStreams([7, 2**130, 0])
    for index in [0, 3, 255, 256, 1000, 2**32 - 1]:
        for gen in streams.at(index):
            gen.standard_normal(5)
            gen.integers(0, 2**32, dtype=np.uint32)
        assert any(g.bit_generator.state["has_uint32"] for g in streams._gens)
        gens = streams.at(index)
        for seed, gen in zip(streams.seeds, gens):
            ref = nz.substream(seed, nz.PURPOSE_SUBSTEP, index)
            assert gen.bit_generator.state["state"]["key"].tobytes() == \
                ref.bit_generator.state["state"]["key"].tobytes()
            for draw in ("uniform", "standard_exponential", "standard_normal"):
                a, b = getattr(gen, draw)(size=3), getattr(ref, draw)(size=3)
                assert a.tobytes() == b.tobytes(), (seed, index, draw)
    # a retired path leaves the others on their own streams
    kept = streams.rows(np.array([True, False, True]))
    assert kept.seeds == [7, 0]
    for seed, gen in zip(kept.seeds, kept.at(9)):
        assert (gen.standard_normal(4).tobytes()
                == nz.substream(seed, nz.PURPOSE_SUBSTEP, 9).standard_normal(4).tobytes())
    with pytest.raises(ValueError, match="counter"):
        kept.at(2**32)


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
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", delta=0.5)
    res = nz.check_summability(spec)
    assert res == {"value": 0.0, "converged": True, "tail_bound": 0.0, "slope": None}
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.1", delta=0.5)
    res = nz.check_summability(spec)
    assert res["converged"] and res["tail_bound"] == 0.0
    expect = sum(0.1**1.5 * (l * (l + 1.0)) ** 0.75 for l in range(1, 9))
    assert res["value"] == pytest.approx(expect, rel=1e-12)


def test_summability_power_law_matches_direct_sum():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5)
    res = nz.check_summability(spec)
    ls = np.arange(1, 10**6 + 1, dtype=np.float64)
    direct = float(np.sum(ls**-3.0 * (ls * (ls + 1.0)) ** 0.75))
    assert res["converged"]
    assert abs(res["value"] - direct) / direct < 1e-6


def test_summability_divergent_has_diagnostic():
    # |sigma_l|^beta lambda_l^(beta delta) ~ l^-2 l^1.5 = l^-0.5
    spec = nz.NoiseSpec(beta=1.5, sigma_rule=f"power:gamma={4 / 3!r}",
                        delta=0.5)
    res = nz.check_summability(spec)
    assert not res["converged"]
    assert res["slope"] == pytest.approx(-0.5, abs=0.01)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.3")
    assert not nz.check_summability(spec)["converged"]


def test_summability_verdict_cached_per_argument_set():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.5", delta=0.25)
    first = nz.check_summability(spec)
    first["converged"] = "mutated"
    before = nz._summability.cache_info()
    # another seed shares the verdict; the caller's copy is its own
    again = nz.check_summability(nz.NoiseSpec(beta=1.5, seed=7,
                                              sigma_rule="power:gamma=2.5",
                                              delta=0.25))
    assert nz._summability.cache_info().hits == before.hits + 1
    assert again["converged"] is True and again is not first
    nz.check_summability(replace(spec, delta=0.3))
    assert nz._summability.cache_info().misses == before.misses + 1


def test_moment_scaling_domain_error():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0")
    with pytest.raises(ValueError):
        nz.moment_scaling_estimate(spec, 1.5, [1.0], 10, lmax=2)
    with pytest.raises(ValueError):
        nz.moment_scaling_estimate(spec, 1.8, [1.0], 10, lmax=2)


def test_moment_scaling_single_mode_slope():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", seed=5)
    est = nz.moment_scaling_estimate(spec, 1.0, [0.25, 0.5, 1.0, 2.0, 4.0], 10**4,
                                     lmax=1)
    logs = np.log(np.array(est))
    slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
    assert slope == pytest.approx(1.0 / 1.5, abs=0.05)


def test_moment_scaling_monotone_in_t():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", delta=0.25, seed=8)
    est = nz.moment_scaling_estimate(spec, 1.0, [0.1, 1.0, 10.0], 4000, lmax=6)
    vals = [e[1] for e in est]
    assert vals[0] < vals[1] < vals[2]


def test_moment_scaling_truncated_two_mode_vs_bruteforce():
    # high-resolution brute-force MC oracle with a separate stream
    spec = nz.NoiseSpec(beta=1.6, sigma_rule="band:l<=2,value=1.0", seed=12)
    t = 0.7
    (_, est), = nz.moment_scaling_estimate(spec, 1.0, [t], 2 * 10**5, lmax=2)
    rng = nz.substream(1234, 77)
    n = 10**6
    X = nz._positive_stable_batch(0.8, t, rng, n)
    # 3 + 5 real coordinates, all amplitude 1
    g = rng.standard_normal((n, 8))
    brute = float(np.mean(np.sqrt(X * (g**2).sum(axis=1))))
    assert abs(est - brute) / brute < 0.02
