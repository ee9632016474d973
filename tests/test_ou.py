"""Stochastic-convolution tests.  Oracles: exact decay/linearity algebra,
Ito isometry, positive-stable moment closed forms, chi-square ratio
identities for the shared-clock dependence, and two independent sampling
routes compared in distribution."""

import math

import numpy as np
import pytest
from scipy import stats

from snse import noise as nz
from snse import ou
from snse.harmonics import SpectralField, norm_h, unit_stream_mode
from snse.operators import OperatorContext


CTX4 = OperatorContext(lmax=4, nu=1.0, omega=0.0)


def test_sigma_zero_exact_decay():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", lmax=4, seed=3, n_substeps=4)
    st = ou.make_ou_state(CTX4, 0.0, z0=unit_stream_mode(4, 1, 0))
    out = ou.ou_step(st, 0.7, spec)
    assert out.z.coeffs[1] == pytest.approx(math.exp(-2 * 0.7) * st.z.coeffs[1], rel=1e-14)
    assert out.t == pytest.approx(0.7)
    assert out.substep_index == 4


def test_sigma_zero_norm_ignores_rotation():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    c[0] = 0.0
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", lmax=4, seed=3)
    norms = []
    for om in (0.0, 5.0):
        ctx = OperatorContext(lmax=4, nu=1.0, omega=om)
        st = ou.make_ou_state(ctx, 0.3, z0=SpectralField(4, c.copy(), "stream"))
        norms.append(norm_h(ou.ou_step(st, 0.5, spec).z))
    assert norms[0] == pytest.approx(norms[1], rel=1e-13)


def test_make_state_validation():
    with pytest.raises(ValueError):
        ou.make_ou_state(CTX4, -0.1)
    # a spectrum with a zero eigenvalue at l = 1 requires a positive shift
    shifted = OperatorContext(lmax=4, nu=1.0, omega=0.0, spectrum="ricci_shifted")
    with pytest.raises(ValueError):
        ou.make_ou_state(shifted, 0.0)
    ou.make_ou_state(shifted, 0.5)  # fine with alpha > 0
    with pytest.raises(ValueError):
        ou.make_ou_state(CTX4, 0.0, z0=unit_stream_mode(5, 1, 0))


def test_step_validation():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=4, seed=0, n_substeps=2)
    st = ou.make_ou_state(CTX4, 0.0)
    with pytest.raises(ValueError):
        ou.ou_step(st, 0.0, spec)
    with pytest.raises(ValueError):
        ou.ou_step(st, 0.5, nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=5))
    good = [nz.levy_increment_block(spec, 0.25, nz.substream(0, 0)) for _ in range(2)]
    ou.ou_step(st, 0.5, spec, blocks=good)
    with pytest.raises(ValueError):
        ou.ou_step(st, 0.5, spec, blocks=good[:1])
    with pytest.raises(ValueError):
        ou.ou_step(st, 0.4, spec, blocks=good)  # dt mismatch against block duration


def test_noise_linearity_exact_factor_two():
    s1 = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=4, seed=9, n_substeps=5)
    s2 = nz.NoiseSpec(beta=1.5, sigma_rule="const:2.0", lmax=4, seed=9, n_substeps=5)
    a = ou.ou_step(ou.make_ou_state(CTX4, 0.1), 0.4, s1)
    b = ou.ou_step(ou.make_ou_state(CTX4, 0.1), 0.4, s2)
    assert np.array_equal(b.z.coeffs, 2.0 * a.z.coeffs)


def test_semigroup_composition_bitwise():
    # exact integrating factor + absolute substep counters: two dt steps
    # replay the identical float operations of one 2dt step
    half = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.5", lmax=4, seed=11, n_substeps=6)
    full = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.5", lmax=4, seed=11, n_substeps=12)
    two = ou.ou_step(ou.ou_step(ou.make_ou_state(CTX4, 0.2), 0.3, half), 0.3, half)
    one = ou.ou_step(ou.make_ou_state(CTX4, 0.2), 0.6, full)
    assert np.array_equal(two.z.coeffs, one.z.coeffs)
    assert two.substep_index == one.substep_index == 12


def test_zonal_coefficients_stay_real_under_rotation():
    ctx = OperatorContext(lmax=3, nu=1.0, omega=4.0)
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.5", lmax=3, seed=13, n_substeps=3)
    st = ou.make_ou_state(ctx, 0.2)
    for _ in range(4):
        st = ou.ou_step(st, 0.25, spec)
    zonal = [1, 3, 6]  # (1,0), (2,0), (3,0) slots
    assert np.all(st.z.coeffs[zonal].imag == 0.0)
    assert np.all(np.isfinite(st.z.coeffs))


def test_ito_isometry_direct_ensemble():
    # all three l=1 coordinates driven: E|z|^2 = 3 sigma^2 (1-e^{-2kt})/(2k)
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="band:l<=1,value=1.0", lmax=1, seed=21)
    Y = ou.ou_endpoint_ensemble(spec, 0.0, 1.0, 10**4, n_substeps=400,
                                rng=nz.substream(5, 0))
    got = float(np.mean(ou.h_norm2_batch(Y, 1)))
    exact = 3.0 * (1.0 - math.exp(-4.0)) / 4.0
    assert abs(got - exact) / exact < 0.03


def test_endpoint_ensemble_validation():
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="zero", lmax=1)
    with pytest.raises(ValueError):
        ou.ou_endpoint_ensemble(spec, 0.0, 0.0, 10)


def test_conditional_engine_matches_stable_closed_form():
    # band l<=1: |z|^2 = sigma^2 V chi^2_3 with V positive (3/4)-stable of
    # scale I = (1-e^{-beta k t})/(beta k); both factor moments are exact
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", lmax=1, seed=31)
    alpha, t, kap = 0.3, 0.7, 2.3
    I = (1.0 - math.exp(-1.5 * kap * t)) / (1.5 * kap)
    for p, tol, key in ((0.5, 0.02, 0), (1.0, 0.05, 1)):
        q, a = p / 2.0, 0.75
        exact = (I ** (q / a) * math.gamma(1 - q / a) / math.gamma(1 - q)
                 * 2.0**q * math.gamma((3 + p) / 2.0) / math.gamma(1.5))
        n2 = ou._conditional_h_norm2_samples(spec, alpha, t, 10**5,
                                             max_kappa_dt=0.01,
                                             rng=nz.substream(7, key))
        assert float(np.mean(n2**q)) == pytest.approx(exact, rel=tol)


def test_shared_clock_ratio_matches_chi_square_theory():
    # one degree, d = 2l+1 coordinates on a common clock:
    # ratio = E(chi^2_d)^{p/2} / (d^{p/beta} m_p); below 1 at p = 1,
    # slightly above 1 at p = 0.5 — the bound constant is single-coordinate
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", lmax=1, seed=31)
    for p, key in ((1.0, 10), (0.5, 11)):
        m_p = 2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        theory = (2.0 ** (p / 2) * math.gamma((3 + p) / 2.0) / math.gamma(1.5)
                  / (3.0 ** (p / 1.5) * m_p))
        chk = ou.ou_moment_check(spec, 0.3, p, 0.7, 10**5,
                                 rng=nz.substream(7, key), max_kappa_dt=0.01)
        assert chk["ratio"] == pytest.approx(theory, abs=0.04)
    assert theory > 1.0  # p = 0.5 case documents the dependence excess


def test_moment_check_gaussian_ito_equality():
    # beta = 2, p = 2: constant is exactly 1 and the bound is the Ito
    # second moment, so the ratio sits at 1 up to sampling + substep bias
    spec = nz.NoiseSpec(beta=2.0, sigma_rule="band:l<=4,value=0.3", lmax=4, seed=1001)
    chk = ou.ou_moment_check(spec, 0.5, 2.0, 2.0, 10**4, max_kappa_dt=0.01)
    assert chk["c_tilde"] == pytest.approx(1.0, abs=1e-14)
    assert abs(chk["empirical"] / chk["bound"] - 1.0) < 0.02


def test_moment_check_stable_bounded():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", lmax=8, seed=2024)
    chk = ou.ou_moment_check(spec, 0.5, 1.0, 1.0, 10**4, counter=101)
    assert chk["passed"] and chk["ratio"] < 0.95


def test_moment_check_ratio_stable_over_decade():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", lmax=8, seed=2024)
    r1 = ou.ou_moment_check(spec, 0.5, 1.0, 0.5, 10**4, counter=201)["ratio"]
    r2 = ou.ou_moment_check(spec, 0.5, 1.0, 5.0, 10**4, counter=202)["ratio"]
    assert abs(r2 / r1 - 1.0) < 0.2


def test_moment_check_trivial_and_domain():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="zero", lmax=4, seed=0)
    chk = ou.ou_moment_check(spec, 0.5, 1.0, 1.0, 100)
    assert chk["empirical"] == 0.0 and chk["ratio"] == 0.0 and chk["passed"]
    live = nz.NoiseSpec(beta=1.5, sigma_rule="const:1.0", lmax=4)
    with pytest.raises(ValueError):
        ou.ou_moment_check(live, 0.0, 1.5, 1.0, 10)


def test_zlp_bound_examples():
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", lmax=8)
    assert ou.zlp_bound(0.0, 1.0, spec, 0.5, 8) == 0.0
    band = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=8,value=0.1", lmax=8)
    expect = sum(
        (2 * l + 1) * 0.1**1.5 / (1.5 * (l * (l + 1) + 0.25)) for l in range(1, 9)
    ) ** (1 / 1.5)
    assert ou.zlp_bound(math.inf, 1.0, band, 0.25, 8) == pytest.approx(expect, rel=1e-12)
    vals = [ou.zlp_bound(1.0, 1.0, spec, a, 8) for a in (0.25, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    # explicit truncation point is immaterial once the tail is summed
    assert ou.zlp_bound(1.0, 1.0, spec, 0.5, 8) == pytest.approx(
        ou.zlp_bound(1.0, 1.0, spec, 0.5, 64), rel=1e-9)
    divergent = nz.NoiseSpec(beta=1.5, sigma_rule="const:0.3", lmax=8)
    assert ou.zlp_bound(1.0, 1.0, divergent, 0.5, 8) == math.inf
    with pytest.raises(ValueError):
        ou.zlp_bound(1.0, 1.6, spec, 0.5, 8)
    with pytest.raises(ValueError):
        ou.zlp_bound(-1.0, 1.0, spec, 0.5, 8)
    no_mult = ou.zlp_bound(1.0, 1.0, spec, 0.5, 8, include_multiplicity=False)
    assert no_mult < ou.zlp_bound(1.0, 1.0, spec, 0.5, 8)


def test_zlp_constant_values():
    assert ou.zlp_constant(2.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert ou.zlp_constant(1.0, 2.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    m1 = math.sqrt(2.0 / math.pi)
    assert ou.zlp_constant(1.0, 1.5) == pytest.approx(
        m1 * math.gamma(1 - 1 / 1.5) / math.gamma(0.5), rel=1e-14)
    with pytest.raises(ValueError):
        ou.zlp_constant(1.5, 1.5)
    with pytest.raises(ValueError):
        ou.zlp_constant(0.0, 2.0)


def test_sup_norm_growth_examples():
    zero = nz.NoiseSpec(beta=1.5, sigma_rule="zero", lmax=1, seed=77)
    r0 = ou.sup_norm_growth(zero, 0.0, 1.0, [0.5, 1.0], 100)
    assert r0["slope"] is None
    assert all(v == 0.0 for _, v in r0["estimates"])
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=1,value=1.0", lmax=1, seed=77)
    r = ou.sup_norm_growth(spec, 0.0, 1.0, [0.5, 1.0, 2.0, 4.0], 3000)
    assert 0.0 < r["slope"] <= 1.0 / 1.5 + 0.1
    multi = nz.NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", lmax=6, seed=78)
    lo = ou.sup_norm_growth(multi, 0.1, 1.0, [1.0], 2000)["estimates"][0][1]
    hi = ou.sup_norm_growth(multi, 0.4, 1.0, [1.0], 2000)["estimates"][0][1]
    assert hi > lo


def _coarsen(blocks):
    out = []
    for i in range(0, len(blocks), 2):
        a, b = blocks[i], blocks[i + 1]
        out.append(nz.LevyIncrementBlock(dt=a.dt + b.dt, dX=a.dX + b.dX, dL=a.dL + b.dL))
    return out


def test_substep_refinement_first_order_on_coupled_noise():
    ctx = OperatorContext(lmax=3, nu=1.0, omega=0.0)
    z0 = unit_stream_mode(3, 1, 0)
    tpl = dict(beta=1.5, sigma_rule="power:gamma=1.5", lmax=3, seed=5)
    gen = nz.substream(123, 0)
    fine_n = 128
    finest = [nz.levy_increment_block(nz.NoiseSpec(n_substeps=fine_n, **tpl),
                                      1.0 / fine_n, gen) for _ in range(fine_n)]

    def endpoint(nsub, blocks):
        spec = nz.NoiseSpec(n_substeps=nsub, **tpl)
        st = ou.make_ou_state(ctx, 0.3, z0=z0)
        return ou.ou_step(st, 1.0, spec, blocks=blocks).z.coeffs

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
    spec = nz.NoiseSpec(beta=1.5, sigma_rule="band:l<=2,value=0.7", lmax=2, seed=41)
    direct = ou.h_norm2_batch(
        ou.ou_endpoint_ensemble(spec, 0.5, 0.6, 4000, n_substeps=300,
                                rng=nz.substream(8, 0)), 2)
    engine = ou._conditional_h_norm2_samples(spec, 0.5, 0.6, 4000,
                                             max_kappa_dt=0.002,
                                             rng=nz.substream(8, 1))
    assert stats.ks_2samp(direct, engine).pvalue > 0.01
