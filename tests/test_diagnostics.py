"""Norm bookkeeping, inequality monitors, ledger arithmetic, bound reports."""

import math
import warnings

import numpy as np
import pytest

from snse.harmonics import (
    SpectralField,
    gauss_legendre_grid,
    grid_integral,
    n_modes,
    random_stream_field,
    unit_stream_mode,
    vector_synthesis,
    zero_field,
)
from snse.operators import (OperatorContext, nonlinear_B, stokes_apply,
                            trilinear_b)
from snse.diagnostics import (
    CHECKS,
    EnergyLedger,
    b_form_constants,
    energy_residual,
    gronwall_bound_report,
    inequality_report,
    l4_grid,
    l4_norm,
    norms,
    record_rows,
)


def _decay_ledger(T=1.0, n=2001, nu=1.0):
    # closed-form run v(t) = e^{-2 nu t} Z_{1,0}: |v|^2 = e^{-4 nu t},
    # |v|_V^2 = 2 e^{-4 nu t}, |Av|^2 = 4 e^{-4 nu t}, z = F = 0
    led = EnergyLedger()
    for t in np.linspace(0.0, T, n):
        e = math.exp(-4.0 * nu * t)
        led.record_state(t=t, v_h2=e, v_v2=2 * e, av2=4 * e, b_vvz=0.0,
                       f_v=0.0, F_h2=0.0, z_h2=0.0, z_v2=0.0, u_l4=0.0)
    return led


def test_unit_mode_norms():
    ctx = OperatorContext(12)
    for l, m in [(1, 0), (2, 2), (5, 3), (9, 0)]:
        n = norms(unit_stream_mode(12, l, m), ctx)
        lam = l * (l + 1)
        assert abs(n["H"] - 1.0) < 1e-12
        assert abs(n["V"] - math.sqrt(lam)) < 1e-11
        assert abs(n["DA"] - lam) < 1e-10
        assert l4_norm(unit_stream_mode(12, l, m)) > 0
    nz = norms(zero_field(12), ctx)
    assert all(nz[k] == 0.0 for k in ("H", "V", "DA"))
    assert l4_norm(zero_field(12)) == 0.0


def test_scalar_field_norms():
    ctx = OperatorContext(8)
    c = np.zeros(n_modes(8), complex)
    c[n_modes(3)] = 1.0  # the (4, 0) slot
    n = norms(SpectralField(8, c, "scalar"), ctx)
    assert abs(n["H"] - 1.0) < 1e-12
    assert abs(n["V"] - math.sqrt(20.0)) < 1e-11
    assert abs(n["DA"] - 20.0) < 1e-10


def test_norms_match_quadratic_form_of_dissipative_operator():
    # |u|_V^2 == (Au, u)_H for both spectra
    rng = np.random.default_rng(5)
    u = random_stream_field(10, rng, decay=1.5, norm=2.0)
    from snse.harmonics import inner_h
    for spectrum in ("paper", "ricci_shifted"):
        ctx = OperatorContext(10, spectrum=spectrum)
        n = norms(u, ctx)
        quad = inner_h(stokes_apply(u, ctx), u)
        assert abs(n["V"] ** 2 - quad) < 1e-10 * max(quad, 1.0)


def test_norms_consistent_across_truncation_embedding():
    rng = np.random.default_rng(6)
    u8 = random_stream_field(8, rng, decay=2.0, norm=1.0)
    c16 = np.zeros(n_modes(16), complex)
    c16[: n_modes(8)] = u8.coeffs
    u16 = SpectralField(16, c16, "stream")
    n8, n16 = norms(u8, OperatorContext(8)), norms(u16, OperatorContext(16))
    n8["L4"], n16["L4"] = l4_norm(u8), l4_norm(u16)
    for k in ("H", "V", "DA", "L4"):
        assert abs(n8[k] - n16[k]) < 1e-12 * max(n8[k], 1.0)


def test_l4_norm_grid_is_exact():
    # the dedicated quadrature grid integrates |u|^4 of band-limited
    # fields exactly: refining the grid changes nothing; and l4_norm's one
    # pass is the quadrature of vector_synthesis on that grid
    rng = np.random.default_rng(11)
    u = random_stream_field(10, rng, decay=1.5, norm=2.0)
    for grid, tol in ((gauss_legendre_grid(64, 129), 1e-13), (l4_grid(10), 1e-15)):
        vec = vector_synthesis(u, grid)
        ref = float(grid_integral(grid, (vec.values[0] ** 2 + vec.values[1] ** 2) ** 2)) ** 0.25
        assert abs(l4_norm(u) - ref) < tol * ref


def test_poincare_saturates_exactly_on_lowest_band():
    ctx = OperatorContext(6)
    rep = inequality_report([unit_stream_mode(6, 1, 1)], ctx)
    assert abs(rep["poincare"]["ratio"] - 1.0) < 1e-12
    # strictly away from saturation once all content sits above l = 1
    rep2 = inequality_report([unit_stream_mode(6, 4, 2)], ctx)
    assert rep2["poincare"]["ratio"] < 0.11


def test_inequality_report_ratios_bounded_on_random_fields():
    rng = np.random.default_rng(7)
    ctx = OperatorContext(12, omega=3.0)
    samples = [random_stream_field(12, rng, decay=1.5, norm=1.0 + 0.2 * i)
               for i in range(6)]
    rep = inequality_report(samples, ctx)
    for name in CHECKS:
        assert rep[name]["ratio"] <= 1.0, name
    # rotational energy neutrality and convective antisymmetry are exact
    assert rep["coriolis_zero"]["lhs"] < 1e-10
    assert rep["b_antisym"]["ratio"] < 1e-12


def test_ladyzhenskaya_ratio_stable_under_truncation_doubling():
    # same function evaluated in a finer truncation: identical ratio
    rng = np.random.default_rng(9)
    u8 = random_stream_field(8, rng, decay=1.2, norm=1.0)
    c16 = np.zeros(n_modes(16), complex)
    c16[: n_modes(8)] = u8.coeffs
    u16 = SpectralField(16, c16, "stream")
    r8 = inequality_report([u8], OperatorContext(8))["ladyzhenskaya"]["ratio"]
    r16 = inequality_report([u16], OperatorContext(16))["ladyzhenskaya"]["ratio"]
    assert abs(r8 - r16) < 1e-12
    assert 0.1 < r8 < 1.0


def test_convection_orthogonal_to_dissipative_image():
    # (B(v,v), Av) vanishes identically on the sphere, under both spectra
    rng = np.random.default_rng(13)
    for spectrum in ("paper", "ricci_shifted"):
        ctx = OperatorContext(10, spectrum=spectrum)
        v = random_stream_field(10, rng, decay=1.2, norm=1.5)
        av = stokes_apply(v, ctx)
        nv = norms(v, ctx)
        scale = math.sqrt(nv["H"]) * nv["V"] * nv["DA"] ** 1.5
        assert abs(trilinear_b(v, v, av, ctx)) < 1e-13 * scale


def test_b_form_constants_small_on_random_fields():
    rng = np.random.default_rng(15)
    ctx = OperatorContext(10)
    samples = [random_stream_field(10, rng, decay=1.5, norm=1.0) for _ in range(4)]
    consts = b_form_constants(samples, ctx)
    assert set(consts) == {"vvA", "vzA", "zvA", "vvz"}
    assert consts["vvA"] < 1e-12
    for key in ("vzA", "zvA", "vvz"):
        assert 0.0 < consts[key] < 1.0
    with pytest.raises(ValueError):
        b_form_constants(samples[:1], ctx)


def test_ledger_validation():
    led = EnergyLedger()
    row = dict(t=0.0, v_h2=1.0, v_v2=2.0, av2=4.0, b_vvz=0.0, f_v=0.0,
               F_h2=0.0, z_h2=0.0, z_v2=0.0, u_l4=0.0)
    led.record_state(**row)
    with pytest.raises(ValueError):
        led.record_state(**{**row, "t": 0.0})  # times must increase
    with pytest.raises(ValueError):
        led.record_state(**{k: v for k, v in row.items() if k != "u_l4"})
    with pytest.raises(ValueError):
        led.record_state(**{**row, "t": 1.0, "v_h2": float("nan")})
    assert led.n == 1


def test_record_state_matches_direct_evaluations():
    rng = np.random.default_rng(21)
    ctx = OperatorContext(8)
    v = random_stream_field(8, rng, decay=1.5, norm=1.0)
    z = random_stream_field(8, rng, decay=2.0, norm=0.5)
    f = random_stream_field(8, rng, decay=2.5, norm=0.3)
    alpha = 0.4
    u = SpectralField(8, v.coeffs + z.coeffs, "stream")
    # N(v, z) = -B(v+z) + alpha z + f and F = -B(z) + alpha z + f
    N = SpectralField(8, -nonlinear_B(u, ctx).coeffs + alpha * z.coeffs
                      + f.coeffs, "stream")
    F = SpectralField(8, -nonlinear_B(z, ctx).coeffs + alpha * z.coeffs
                      + f.coeffs, "stream")
    led = EnergyLedger()
    stack = [SpectralField(8, x.coeffs[None], "stream") for x in (v, z, N, F)]
    assert record_rows([led], 0.0, *stack, ctx, u_l4=[l4_norm(u)]).all()
    from snse.harmonics import inner_h, norm_h
    nv = norms(v, ctx)
    assert abs(led.data["v_h2"][0] - nv["H"] ** 2) < 1e-14
    assert abs(led.data["v_v2"][0] - nv["V"] ** 2) < 1e-13
    assert abs(led.data["av2"][0] - nv["DA"] ** 2) < 1e-12
    assert abs(led.data["b_vvz"][0] - trilinear_b(v, v, z, ctx)) < 1e-14
    assert abs(led.data["f_v"][0] - inner_h(F, v)) < 1e-14
    assert abs(led.data["F_h2"][0] - norm_h(F) ** 2) < 1e-14
    assert abs(led.data["u_l4"][0] - l4_norm(u)) < 1e-14


def test_cumulative_trapezoid_known_values():
    led = EnergyLedger()
    for t, y in [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]:
        led.record_state(t=t, v_h2=y, v_v2=0.0, av2=0.0, b_vvz=0.0, f_v=0.0,
                       F_h2=0.0, z_h2=0.0, z_v2=0.0, u_l4=0.0)
    np.testing.assert_allclose(led.cumulative("v_h2"), [0.0, 0.5, 2.0])
    assert led.integral("v_h2") == 2.0
    assert led.sup("v_h2") == 2.0
    assert EnergyLedger().integral("v_h2") == 0.0


def test_energy_residual_vanishes_on_closed_form_decay():
    res = energy_residual(_decay_ledger(n=2001), nu=1.0)
    assert abs(res) < 1e-6
    # trapezoidal quadrature error: fourfold shrink per halving
    res_coarse = energy_residual(_decay_ledger(n=1001), nu=1.0)
    assert res_coarse / res == pytest.approx(4.0, rel=0.02)
    assert energy_residual(EnergyLedger(), nu=1.0) == 0.0


def test_gronwall_report_exact_unforced_case():
    led = _decay_ledger()
    rep = gronwall_bound_report(led, 1.0, c_emp=0.5)
    # no force, no noise: K1 = |v0|^2 / (3 nu / 2) with no Young remainder
    assert rep["K1"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert rep["K2"] == pytest.approx(1.0, abs=1e-15)
    # |v|^2 starts at its supremum: K2 is attained with equality
    assert rep["observed"]["sup_v_h2"] == pytest.approx(rep["K2"])
    assert all(rep["satisfied"].values())
    assert rep["K3"] >= rep["observed"]["sup_v_v2"]
    assert rep["K4"] >= rep["observed"]["int_av2"]
    assert rep["epsilon_da"] == pytest.approx(4.0 / 13.0)


def test_gronwall_report_arithmetic_with_force_and_noise_terms():
    # synthetic constant series make every trapezoid a product
    led = EnergyLedger()
    for t in (0.0, 0.5, 1.0):
        led.record_state(t=t, v_h2=2.0, v_v2=4.0, av2=8.0, b_vvz=0.1,
                       f_v=0.2, F_h2=0.3, z_h2=0.5, z_v2=0.7, u_l4=1.0)
    nu = 2.0
    rep = gronwall_bound_report(led, nu, c_emp=1.0)
    eps, eps_da = nu, 4.0 * nu / 13.0
    num1 = 2.0 + (2 / eps) * (2.0 * 0.7) + (2 / eps) * 0.3 + (eps / 2) * 2.0
    assert rep["K1"] == pytest.approx(num1 / (2 * nu - eps / 2))
    assert rep["K2"] == pytest.approx(num1)
    C_eps = 27.0 / (256.0 * eps_da**3)
    theta = C_eps * (2 * 4 + 2 * 0.7 + 0.5 * 0.7)
    assert rep["K3"] == pytest.approx((4.0 + 0.3 / eps_da) * math.exp(theta))
    grow = C_eps * (2 * 16 + 2 * 4 * 0.7 + 0.5 * 0.7 * 4)
    assert rep["K4"] == pytest.approx((4.0 + grow + 0.3 / eps_da) / nu)


def test_gronwall_report_saturates_a_huge_convective_constant():
    # c_emp^4 overflows: C(eps) saturates to inf as K3's exponential does,
    # and an integrand that is 0 contributes 0 (no nan, no warning)
    still = EnergyLedger()
    for t in (0.0, 0.5, 1.0):
        still.record_state(t=t, v_h2=0.0, v_v2=0.0, av2=0.0, b_vvz=0.0, f_v=0.0,
                         F_h2=0.0, z_h2=0.0, z_v2=0.0, u_l4=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = gronwall_bound_report(_decay_ledger(), 1.0, c_emp=1.0)
        rep = gronwall_bound_report(_decay_ledger(), 1.0, c_emp=1e80)
        zero = gronwall_bound_report(still, 1.0, c_emp=1e80)
    assert rep["C_eps"] == rep["K3"] == rep["K4"] == math.inf
    assert (rep["K1"], rep["K2"]) == (base["K1"], base["K2"])
    assert all(rep["satisfied"].values())
    assert zero["C_eps"] == math.inf and zero["K3"] == zero["K4"] == 0.0
    assert all(zero["satisfied"].values())


def test_gronwall_report_validation():
    with pytest.raises(ValueError):
        gronwall_bound_report(_decay_ledger(), 0.0, c_emp=1.0)
    short = EnergyLedger()
    short.record_state(t=0.0, v_h2=1.0, v_v2=2.0, av2=4.0, b_vvz=0.0, f_v=0.0,
                     F_h2=0.0, z_h2=0.0, z_v2=0.0, u_l4=0.0)
    with pytest.raises(ValueError):
        gronwall_bound_report(short, 1.0, c_emp=1.0)
