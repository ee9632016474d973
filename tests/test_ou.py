"""Stochastic-convolution tests.  Oracles: exact decay/linearity algebra,
Ito isometry, positive-stable moment closed forms, chi-square ratio
identities for the shared-clock dependence, and two independent sampling
routes compared in distribution."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from snse import noise as nz
from snse import ou
from snse.harmonics import (SpectralField, _mode_weights, basis_eigenvalues,
                            norm_h, unit_stream_mode)
from snse.operators import OperatorContext

from oracles import (gaussian_mode_increments, levy_increment_batch,
                     ou_endpoint_ensemble, ou_step_path)


CTX1 = OperatorContext(lmax=1)
CTX4 = OperatorContext(lmax=4, nu=1.0, omega=0.0)
CTX8 = OperatorContext(lmax=8)


def h_norm2_batch(coeffs, lmax, weight_exponent=0.0):
    """|z|_H^2 (weight_exponent = 0) or |A^s z|_H^2 over the last axis."""
    lam = basis_eigenvalues(lmax)
    w = _mode_weights(lmax) * lam * np.where(lam > 0, lam, 1.0) ** (2.0 * weight_exponent)
    return (np.abs(coeffs) ** 2 * w).sum(axis=-1)


def sup_norm_growth(spec, lmax, delta, p, T_list, n_paths, *, n_time=64):
    """E sup_{t<=T} |A^delta z_t|^p per horizon T (rotation-free, alpha 0,
    nu 1) and its log-log slope over T_list; slope None when every
    estimate vanishes."""
    g = ou._mode_gain(spec, lmax)
    kappa = basis_eigenvalues(lmax)
    estimates = []
    for i, T in enumerate(T_list):
        dt = float(T) / n_time
        decay = np.exp(-kappa * dt)
        gen = nz.substream(spec.seed, nz.PURPOSE_MC, 10_000 + i)
        y = np.zeros((n_paths, kappa.size), dtype=np.complex128)
        run_max = np.zeros(n_paths)
        for _ in range(n_time):
            dL = levy_increment_batch(spec, dt, gen, n_paths, lmax)
            y = decay * (y + g * dL)
            np.maximum(run_max, h_norm2_batch(y, lmax, delta), out=run_max)
        estimates.append((float(T), float(np.mean(run_max ** (p / 2.0)))))
    vals = np.array([e[1] for e in estimates])
    if np.any(vals <= 0) or len(estimates) < 2:
        return {"slope": None, "estimates": estimates}
    slope = float(np.polyfit(np.log([e[0] for e in estimates]), np.log(vals), 1)[0])
    return {"slope": slope, "estimates": estimates}


def test_sigma_zero_exact_decay():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", seed=3, n_substeps=4)
    st = replace(ou.make_ou_state(CTX4, spec), z=unit_stream_mode(4, 1, 0))
    out = ou_step_path(st, 0.7, spec)
    assert out.z.coeffs[1] == pytest.approx(math.exp(-2 * 0.7) * st.z.coeffs[1], rel=1e-14)
    assert out.substep_index == 4


def test_sigma_zero_norm_ignores_rotation():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    c[0] = 0.0
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", seed=3)
    norms = []
    for om in (0.0, 5.0):
        ctx = OperatorContext(lmax=4, nu=1.0, omega=om, alpha=0.3)
        st = replace(ou.make_ou_state(ctx, spec), z=SpectralField(4, c.copy(), "stream"))
        norms.append(norm_h(ou_step_path(st, 0.5, spec).z))
    assert norms[0] == pytest.approx(norms[1], rel=1e-13)


def test_make_state_validation():
    driven = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0")
    with pytest.raises(ValueError):
        ou.make_ou_state(replace(CTX4, alpha=-0.1), driven)
    # a spectrum with a zero eigenvalue at l = 1 requires a positive shift
    shifted = OperatorContext(lmax=4, nu=1.0, omega=0.0, spectrum="ricci_shifted")
    with pytest.raises(ValueError):
        ou.make_ou_state(shifted, driven)
    ou.make_ou_state(replace(shifted, alpha=0.5), driven)  # fine with alpha > 0


@pytest.mark.parametrize("sigma", ["zero", "const:0.0"])
def test_decay_gate_applies_only_to_driven_noise(sigma):
    # undriven, z stays 0 and the zero mode of the shifted spectrum needs no
    # damping; driven on a degree up to lmax, it does
    shifted = OperatorContext(lmax=4, spectrum="ricci_shifted")
    st = ou.make_ou_state(shifted, nz.NoiseSpec(beta=1.5, sigma_rule=sigma))
    assert not st.z.coeffs.any() and st.z.kind == "stream"
    assert np.array_equal(st.kappa, ou.decay_rates(shifted))
    assert st.kappa[1].real == 0.0
    for driven in ("const:1.0", "band:l<=1,value=0.5", "power:gamma=2.0"):
        with pytest.raises(ValueError, match="alpha > 0"):
            ou.make_ou_state(shifted, nz.NoiseSpec(beta=1.5, sigma_rule=driven))


def test_step_validation():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=0, n_substeps=2)
    st = ou.make_ou_state(CTX4, spec)
    with pytest.raises(ValueError):
        ou_step_path(st, 0.0, spec)


def test_noise_linearity_exact_factor_two():
    s1 = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", seed=9, n_substeps=5)
    s2 = nz.NoiseSpec(beta=1.5, sigma_rule="const:2.0", seed=9, n_substeps=5)
    a = ou_step_path(ou.make_ou_state(replace(CTX4, alpha=0.1), s1), 0.4, s1)
    b = ou_step_path(ou.make_ou_state(replace(CTX4, alpha=0.1), s2), 0.4, s2)
    assert np.array_equal(b.z.coeffs, 2.0 * a.z.coeffs)


def test_semigroup_composition_bitwise():
    # exact integrating factor + absolute substep counters: two dt steps
    # replay the identical float operations of one 2dt step
    half = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.5", seed=11, n_substeps=6)
    full = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.5", seed=11, n_substeps=12)
    ctx = replace(CTX4, alpha=0.2)
    two = ou_step_path(ou_step_path(ou.make_ou_state(ctx, half), 0.3, half), 0.3, half)
    one = ou_step_path(ou.make_ou_state(ctx, full), 0.6, full)
    assert np.array_equal(two.z.coeffs, one.z.coeffs)
    assert two.substep_index == one.substep_index == 12


def test_zonal_coefficients_stay_real_under_rotation():
    ctx = OperatorContext(lmax=3, nu=1.0, omega=4.0, alpha=0.2)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.5", seed=13, n_substeps=3)
    st = ou.make_ou_state(ctx, spec)
    for _ in range(4):
        st = ou_step_path(st, 0.25, spec)
    zonal = [1, 3, 6]  # (1,0), (2,0), (3,0) slots
    assert np.all(st.z.coeffs[zonal].imag == 0.0)
    assert np.all(np.isfinite(st.z.coeffs))


def test_ito_isometry_direct_ensemble():
    # all three l=1 coordinates driven: E|z|^2 = 3 sigma^2 (1-e^{-2kt})/(2k)
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="band:l<=1,value=1.0", seed=21)
    Y = ou_endpoint_ensemble(spec, CTX1, 1.0, 10**4, n_substeps=400,
                             rng=nz.substream(5, 0))
    got = float(np.mean(h_norm2_batch(Y, 1)))
    exact = 3.0 * (1.0 - math.exp(-4.0)) / 4.0
    assert abs(got - exact) / exact < 0.03


def test_endpoint_ensemble_is_the_written_out_recursion():
    # one generator feeds every substep: clock, then Gaussians, per substep
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", seed=6)
    Y = ou_endpoint_ensemble(spec, OperatorContext(3, nu=0.8, alpha=0.4),
                             0.5, 7, n_substeps=5, rng=nz.substream(6, 0))
    rng, delta = nz.substream(6, 0), 0.5 / 5
    decay = np.exp(-(0.8 * basis_eigenvalues(3) + 0.4) * delta)
    y = np.zeros((7, 10), dtype=np.complex128)
    for _ in range(5):
        dX = nz._positive_stable_batch(0.75, delta, rng, 7)
        y = decay * (y + ou._mode_gain(spec, 3) * gaussian_mode_increments(rng, dX, 3))
    assert np.array_equal(Y, y)


def test_endpoint_ensemble_draws_on_the_context_band_limit():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.5", seed=3)
    Y = ou_endpoint_ensemble(spec, CTX8, 0.5, 6, n_substeps=2)
    assert Y.shape == (6, 45) and np.all(Y[:, 1:] != 0.0)


def test_endpoint_ensemble_validation():
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="zero")
    with pytest.raises(ValueError):
        ou_endpoint_ensemble(spec, CTX1, 0.0, 10)


def test_conditional_engine_matches_stable_closed_form():
    # band l<=1: |z|^2 = sigma^2 V chi^2_3 with V positive (3/4)-stable of
    # scale I = (1-e^{-beta k t})/(beta k); both factor moments are exact
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", seed=31)
    alpha, t, kap = 0.3, 0.7, 2.3
    I = (1.0 - math.exp(-1.5 * kap * t)) / (1.5 * kap)
    for p, tol, key in ((0.5, 0.02, 0), (1.0, 0.05, 1)):
        q, a = p / 2.0, 0.75
        exact = (I ** (q / a) * math.gamma(1 - q / a) / math.gamma(1 - q)
                 * 2.0**q * math.gamma((3 + p) / 2.0) / math.gamma(1.5))
        n2 = ou._conditional_h_norm2_samples(spec, replace(CTX1, alpha=alpha),
                                             t, 10**5,
                                             max_kappa_dt=0.01,
                                             rng=nz.substream(7, key))
        assert float(np.mean(n2**q)) == pytest.approx(exact, rel=tol)


def clock_engine_case(n):
    """(spec, alpha, t, max_kappa_dt) giving exactly n clock substeps on
    CTX4, whose largest rate is nu * 20 + alpha."""
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", seed=5)
    alpha, t = 0.2, 0.3
    return spec, alpha, t, t * 20.2 / (n - 0.5)


def written_out_h_norm2(spec, alpha, t, n, n_paths, rng):
    """The clock recursion one multiply-add per substep, then the
    chi-square draws, from one generator."""
    degs = np.arange(1, 5)
    kap = 1.0 * degs * (degs + 1.0) + alpha
    delta = t / n
    E2 = np.exp(-2.0 * kap * delta)
    S = np.zeros((n_paths, 4))
    for _ in range(n):
        S = (S + nz._positive_stable_batch(0.75, delta, rng, n_paths)[:, None]) * E2
    norm2 = np.zeros(n_paths)
    for i, l in enumerate(degs):
        G = rng.standard_normal((n_paths, 2 * l + 1))
        norm2 += spec.sigma_rule(l) ** 2 * S[:, i] * (G**2).sum(axis=1)
    return norm2


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_blocked_clock_sum_is_the_substep_recursion(n):
    # the clock sum enters in blocks of ou._CLOCK_BLOCK substeps: full
    # blocks, a partial one, and both, against one multiply-add per substep
    spec, alpha, t, mkd = clock_engine_case(n)
    got = ou._conditional_h_norm2_samples(spec, replace(CTX4, alpha=alpha),
                                          t, 300,
                                          max_kappa_dt=mkd,
                                          rng=nz.substream(8, n))
    want = written_out_h_norm2(spec, alpha, t, n, 300, nz.substream(8, n))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_clock_draws_one_substep_at_a_time(monkeypatch):
    # n calls of n_paths samples each, the k-th call drawing the k-th
    # substep's increment: nothing drawn ahead or beyond the last substep
    n, n_paths = 17, 50
    spec, alpha, t, mkd = clock_engine_case(n)
    ref_rng = nz.substream(9, 0)
    want = [nz._positive_stable_batch(0.75, t / n, ref_rng, n_paths)
            for _ in range(n)]
    calls = []

    def recording(index, scale_t, rng, size):
        out = nz._positive_stable_batch(index, scale_t, rng, size)
        calls.append((size, out.copy()))
        return out

    monkeypatch.setattr(ou, "_positive_stable_batch", recording)
    ou._conditional_h_norm2_samples(spec, replace(CTX4, alpha=alpha), t, n_paths,
                                    max_kappa_dt=mkd, rng=nz.substream(9, 0))
    assert len(calls) == n
    for (size, got), draw in zip(calls, want):
        assert size == n_paths
        assert np.array_equal(got, draw)


def test_shared_clock_ratio_matches_chi_square_theory():
    # one degree, d = 2l+1 coordinates on a common clock:
    # ratio = E(chi^2_d)^{p/2} / (d^{p/beta} m_p); below 1 at p = 1,
    # slightly above 1 at p = 0.5 — the bound constant is single-coordinate
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", seed=31)
    for p, key in ((1.0, 10), (0.5, 11)):
        m_p = 2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        theory = (2.0 ** (p / 2) * math.gamma((3 + p) / 2.0) / math.gamma(1.5)
                  / (3.0 ** (p / 1.5) * m_p))
        chk = ou.ou_moment_check(spec, replace(CTX1, alpha=0.3), p, 0.7, 10**5,
                                 rng=nz.substream(7, key), max_kappa_dt=0.01)
        assert chk["ratio"] == pytest.approx(theory, abs=0.04)
    assert theory > 1.0  # p = 0.5 case documents the dependence excess


def test_moment_check_gaussian_ito_equality():
    # beta = 2, p = 2: constant is exactly 1 and the bound is the Ito
    # second moment, so the ratio sits at 1 up to sampling + substep bias;
    # the sampled degrees are those of the context's band limit
    for band, ctx in ((4, CTX4), (8, CTX8)):
        spec = nz.NoiseSpec(beta=2.0, sigma_rule=f"band:l<={band},value=0.3",
                            seed=1001)
        chk = ou.ou_moment_check(spec, replace(ctx, alpha=0.5), 2.0, 2.0, 10**4,
                                 max_kappa_dt=0.01)
        assert chk["c_tilde"] == pytest.approx(1.0, abs=1e-14)
        assert abs(chk["empirical"] / chk["bound"] - 1.0) < 0.02


def test_moment_check_stable_bounded():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", seed=2024)
    chk = ou.ou_moment_check(spec, replace(CTX8, alpha=0.5), 1.0, 1.0, 10**4,
                             counter=101)
    assert chk["passed"] and chk["ratio"] < 0.95


def test_moment_check_ratio_stable_over_decade():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", seed=2024)
    ctx = replace(CTX8, alpha=0.5)
    r1 = ou.ou_moment_check(spec, ctx, 1.0, 0.5, 10**4, counter=201)["ratio"]
    r2 = ou.ou_moment_check(spec, ctx, 1.0, 5.0, 10**4, counter=202)["ratio"]
    assert abs(r2 / r1 - 1.0) < 0.2


def test_moment_check_trivial_and_domain():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", seed=0)
    chk = ou.ou_moment_check(spec, replace(CTX4, alpha=0.5), 1.0, 1.0, 100)
    assert chk["empirical"] == 0.0 and chk["ratio"] == 0.0 and chk["passed"]
    live = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0")
    with pytest.raises(ValueError):
        ou.ou_moment_check(live, CTX4, 1.5, 1.0, 10)


def test_zlp_bound_examples():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0")
    ctx = replace(CTX8, alpha=0.5)
    assert ou.zlp_bound(0.0, 1.0, spec, ctx) == 0.0
    band = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.1")
    expect = sum(
        (2 * l + 1) * 0.1**1.5 / (1.5 * (l * (l + 1) + 0.25)) for l in range(1, 9)
    ) ** (1 / 1.5)
    assert ou.zlp_bound(math.inf, 1.0, band, replace(CTX8, alpha=0.25)) == pytest.approx(
        expect, rel=1e-12)
    vals = [ou.zlp_bound(1.0, 1.0, spec, replace(CTX8, alpha=a))
            for a in (0.25, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    # explicit truncation point is immaterial once the tail is summed
    assert ou.zlp_bound(1.0, 1.0, spec, ctx) == pytest.approx(
        ou.zlp_bound(1.0, 1.0, spec, OperatorContext(64, alpha=0.5)), rel=1e-9)
    divergent = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.3")
    assert ou.zlp_bound(1.0, 1.0, divergent, ctx) == math.inf
    with pytest.raises(ValueError):
        ou.zlp_bound(1.0, 1.6, spec, ctx)
    with pytest.raises(ValueError):
        ou.zlp_bound(-1.0, 1.0, spec, ctx)


def test_zlp_bound_follows_the_context_spectrum():
    # ricci_shifted: kappa_l = nu (l(l+1) - 2) + alpha, so l = 1 is damped
    # by alpha alone
    band = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.1")
    ctx = OperatorContext(8, nu=0.7, spectrum="ricci_shifted", alpha=0.25)
    expect = sum(
        (2 * l + 1) * 0.1**1.5 / (1.5 * (0.7 * (l * (l + 1) - 2) + 0.25))
        for l in range(1, 9)
    ) ** (1 / 1.5)
    assert ou.zlp_bound(math.inf, 1.0, band, ctx) == pytest.approx(expect, rel=1e-12)
    assert expect > ou.zlp_bound(math.inf, 1.0, band,
                                 OperatorContext(8, nu=0.7, alpha=0.25))


def test_zero_decay_rate_takes_the_limit():
    # ricci_shifted with alpha = 0 leaves the driven l = 1 undamped: its
    # term is the kappa -> 0 limit sigma^beta 3 t, not 0/0
    ctx = OperatorContext(4, spectrum="ricci_shifted")
    t = 0.5
    for beta in (1.5, 2.0):
        spec = nz.NoiseSpec(beta=beta, sigma_rule="band:l<=2,value=0.5")
        bk = beta * 4.0                     # l = 2: nu (l(l+1) - 2) = 4
        expect = (0.5**beta * 3 * t
                  + 5 * 0.5**beta * (1 - math.exp(-bk * t)) / bk) ** (1 / beta)
        assert ou.zlp_bound(t, 1.0, spec, ctx) == pytest.approx(expect, rel=1e-12)
        samples = ou._conditional_h_norm2_samples(
            spec, ctx, t, 200, rng=np.random.default_rng(1))
        assert np.all(np.isfinite(samples)) and np.all(samples > 0)


def written_out_zlp_bound(t, p, spec, ctx):
    """zlp_bound with each term formed out of place, one expression per
    step: the reference for the in-place evaluation."""
    beta, rule = spec.beta, spec.sigma_rule

    def term(l):
        bk = beta * (ctx.nu * ctx.stokes_eigenvalues(l) + ctx.alpha)
        amp = np.abs(rule(l)) ** beta
        with np.errstate(invalid="ignore"):
            out = np.where(bk == 0.0, amp * t, amp * (-np.expm1(-bk * t)) / bk)
        return np.where(amp > 0, out * (2.0 * l + 1.0), 0.0)

    head = float(term(np.arange(1, ctx.lmax + 1, dtype=np.float64)).sum())
    partial, tail, _ = nz._tail_sum(term, ctx.lmax + 1, 10**5)
    return (head + (partial + tail)) ** (p / beta)


@pytest.mark.parametrize("beta,rule,spectrum,alpha,t", [
    (1.5, "power:gamma=2.0", "paper", 0.1, 0.5),
    (2.0, "power:gamma=1.2", "paper", 0.3, 3.0),
    (1.2, "band:l<=6,value=-0.4", "ricci_shifted", 0.0, 0.25),
    (1.5, "band:l<=2,value=0.5", "ricci_shifted", 0.0, math.inf),
    (0.8, "const:0.05", "paper", 0.2, 1.0),
    (1.5, "zero", "paper", 0.1, 0.5),
    (1.5, "zero", "ricci_shifted", 0.0, math.inf),
])
def test_zlp_bound_is_the_written_out_sum(beta, rule, spectrum, alpha, t):
    # same operations in the same order, zero rates and zero amplitudes
    # included: equal to the last bit
    spec = nz.NoiseSpec(beta=beta, sigma_rule=rule)
    ctx = OperatorContext(6, nu=0.7, alpha=alpha, spectrum=spectrum)
    assert ou.zlp_bound(t, 0.5, spec, ctx) == written_out_zlp_bound(
        t, 0.5, spec, ctx)


def test_moment_check_memory_peak():
    # the chi-square loop keeps one degree's draws alive and the bound's
    # tail chunk is evaluated in place: the check's traced peak stays
    # below 4 MB at 10^4 paths (two such checks overlap in verify-ou)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", seed=3)
    ctx = OperatorContext(12, nu=0.5, alpha=0.1)
    ou.ou_moment_check(spec, ctx, 1.0, 0.5, 100)       # caches filled
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ou.ou_moment_check(spec, ctx, 1.0, 0.5, 10**4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4.0e6, peak


def test_zlp_constant_values():
    assert ou.zlp_constant(2.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    # Gaussian clock: Jensen below p = 2 (constant 1), m_p above it
    assert ou.zlp_constant(1.0, 2.0) == 1.0
    m4 = 2.0 ** 2 * math.gamma(2.5) / math.sqrt(math.pi)
    assert ou.zlp_constant(4.0, 2.0) == pytest.approx(m4, rel=1e-14)
    m1 = math.sqrt(2.0 / math.pi)
    assert ou.zlp_constant(1.0, 1.5) == pytest.approx(
        m1 * math.gamma(1 - 1 / 1.5) / math.gamma(0.5), rel=1e-14)
    with pytest.raises(ValueError):
        ou.zlp_constant(1.5, 1.5)
    with pytest.raises(ValueError):
        ou.zlp_constant(0.0, 2.0)


def test_sup_norm_growth_examples():
    zero = nz.NoiseSpec(beta=1.5, sigma_rule="zero", seed=77)
    r0 = sup_norm_growth(zero, 1, 0.0, 1.0, [0.5, 1.0], 100)
    assert r0["slope"] is None
    assert all(v == 0.0 for _, v in r0["estimates"])
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", seed=77)
    r = sup_norm_growth(spec, 1, 0.0, 1.0, [0.5, 1.0, 2.0, 4.0], 3000)
    assert 0.0 < r["slope"] <= 1.0 / 1.5 + 0.1
    multi = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", seed=78)
    lo = sup_norm_growth(multi, 6, 0.1, 1.0, [1.0], 2000)["estimates"][0][1]
    hi = sup_norm_growth(multi, 6, 0.4, 1.0, [1.0], 2000)["estimates"][0][1]
    assert hi > lo


def _coarsen(blocks):
    out = []
    for i in range(0, len(blocks), 2):
        a, b = blocks[i], blocks[i + 1]
        out.append(nz.LevyIncrementBlock(dX=a.dX + b.dX, dL=a.dL + b.dL))
    return out


def test_substep_refinement_first_order_on_coupled_noise(monkeypatch):
    ctx = OperatorContext(lmax=3, nu=1.0, omega=0.0, alpha=0.3)
    z0 = unit_stream_mode(3, 1, 0)
    tpl = dict(beta=1.5, sigma_rule="power:gamma=1.5", seed=5)
    gen = nz.substream(123, 0)
    fine_n = 128
    finest = [nz.levy_increment_block(nz.NoiseSpec(n_substeps=fine_n, **tpl),
                                      1.0 / fine_n, gen, lmax=3)
              for _ in range(fine_n)]

    def endpoint(nsub, blocks):
        # ou_step draws its substeps in order: feed it the coupled blocks
        feed = iter(blocks)
        monkeypatch.setattr(ou, "levy_increment_block",
                            lambda spec, dt, gen, *, lmax: next(feed))
        spec = nz.NoiseSpec(n_substeps=nsub, **tpl)
        st = replace(ou.make_ou_state(ctx, spec), z=z0)
        z = ou_step_path(st, 1.0, spec).z.coeffs
        assert next(feed, None) is None        # every block was used
        return z

    ref = endpoint(fine_n, finest)
    levels, errs = [8, 16, 32, 64], []
    for n in levels:
        blocks = finest
        while len(blocks) > n:
            blocks = _coarsen(blocks)
        errs.append(np.max(np.abs(endpoint(n, blocks) - ref)))
    slope = -np.polyfit(np.log(levels), np.log(errs), 1)[0]
    assert slope >= 0.8  # order >= 1, up to single-path noise


def test_engine_and_stepper_agree_in_distribution():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=2,value=0.7", seed=41)
    ctx = OperatorContext(lmax=2, alpha=0.5)
    direct = h_norm2_batch(
        ou_endpoint_ensemble(spec, ctx, 0.6, 4000, n_substeps=300,
                             rng=nz.substream(8, 0)), 2)
    engine = ou._conditional_h_norm2_samples(spec, ctx, 0.6, 4000,
                                             max_kappa_dt=0.002,
                                             rng=nz.substream(8, 1))
    assert stats.ks_2samp(direct, engine).pvalue > 0.01
