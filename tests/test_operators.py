"""Operator-layer tests: diagonal dissipation and its fractional powers,
rotation (two independent routes), curvature action, vorticity, and the two
independent convective-term routes.  Oracles: finite differences on the
grid, brute-force quadrature, and closed-form single-mode facts."""

import math

import numpy as np
import pytest

from snse import harmonics as sh
from snse import operators as op


@pytest.fixture(scope="module")
def ctx10():
    return op.OperatorContext(lmax=10, nu=1.0, omega=1.3)


def stream_with(lmax, entries):
    f = sh.zero_field(lmax, "stream")
    for (l, m), c in entries.items():
        f.coeffs[sh.mode_index(l, m)] = c
    return f


# ---------------------------------------------------------------- dissipation


def test_stokes_eigenvalue_l1():
    u = sh.unit_stream_mode(6, 1, 0)
    au = op.stokes_apply(u, 1.0)
    assert np.allclose(au.coeffs, 2.0 * u.coeffs, atol=1e-14)


def test_stokes_fractional_power():
    u = sh.unit_stream_mode(6, 2, 1)
    r = op.stokes_apply(u, 0.5)
    assert np.allclose(r.coeffs, math.sqrt(6.0) * u.coeffs, atol=1e-12)


def test_stokes_identity_at_zero_power():
    rng = np.random.default_rng(0)
    u = sh.random_stream_field(8, rng)
    r = op.stokes_apply(u, 0.0)
    assert np.array_equal(r.coeffs, u.coeffs)


def test_stokes_spectrum_flag():
    ctx = op.OperatorContext(lmax=6, spectrum="ricci_shifted")
    u = sh.unit_stream_mode(6, 3, 1)
    r = op.stokes_apply(u, 1.0, ctx)
    assert np.allclose(r.coeffs, 10.0 * u.coeffs, atol=1e-13)  # 12 - 2
    # l=1 is a zero mode under the shifted spectrum
    z = sh.unit_stream_mode(6, 1, 0)
    assert np.abs(op.stokes_apply(z, 1.0, ctx).coeffs).max() == 0.0
    with pytest.raises(ValueError):
        op.stokes_apply(z, -1.0, ctx)


def test_stokes_positivity_and_poincare():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = sh.random_stream_field(12, rng)
        au = op.stokes_apply(u, 1.0)
        quad = sh.inner_h(au, u)
        h2 = sh.norm_h(u) ** 2
        assert quad >= 2.0 * h2 - 1e-12    # first eigenvalue 2 = 1*(1+1)


def test_spectrum_flag_does_not_touch_basis_norms():
    ctx = op.OperatorContext(lmax=5, spectrum="ricci_shifted")
    u = sh.unit_stream_mode(5, 1, 0)
    assert sh.norm_h(u) == pytest.approx(1.0, abs=1e-12)
    z = op.curl_scalar(u)  # still l(l+1) psi
    assert z.coeffs[sh.mode_index(1, 0)] == pytest.approx(2.0 * u.coeffs[sh.mode_index(1, 0)])
    # l-major layout: slots 1,2 are l=1, slot 3 is l=2
    assert np.array_equal(ctx.lam_basis[1:4], np.array([2.0, 2.0, 6.0]))
    assert np.array_equal(ctx.lam_stokes[1:4], np.array([0.0, 0.0, 4.0]))


# ------------------------------------------------------------------ rotation


def test_coriolis_zero_rotation_rate(ctx10):
    ctx = op.OperatorContext(lmax=10, omega=0.0)
    u = sh.random_stream_field(10, np.random.default_rng(2))
    assert np.abs(op.coriolis_apply(u, ctx).coeffs).max() == 0.0


def test_coriolis_paths_agree(ctx10):
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = sh.random_stream_field(10, rng)
        a = op.coriolis_apply(u, ctx10, path="spectral").coeffs
        b = op.coriolis_apply(u, ctx10, path="grid").coeffs
        assert np.abs(a - b).max() < 1e-8


def test_coriolis_skew_adjoint(ctx10):
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = sh.random_stream_field(10, rng)
        cu = op.coriolis_apply(u, ctx10)
        assert abs(sh.inner_h(cu, u)) < 1e-10
        for s in (1.0, 2.0):
            asu = op.stokes_apply(u, s, ctx10)
            assert abs(sh.inner_h(cu, asu)) < 1e-10


def test_coriolis_unknown_path(ctx10):
    u = sh.unit_stream_mode(10, 1, 0)
    with pytest.raises(ValueError):
        op.coriolis_apply(u, ctx10, path="bogus")


# ----------------------------------------------------------------- curvature


def test_stress_form_consistency(ctx10):
    # (curl u, curl u) - 2 (Ric u, u) must equal the curvature-shifted
    # quadratic form sum l(l+1)(l(l+1)-2) |psi|^2-weighted, i.e. (A u, u)
    # under the ricci_shifted spectrum.  On the unit sphere Ric is the
    # metric, so on orthonormal-frame components Ric u = u.
    rng = np.random.default_rng(6)
    ctx_shift = op.OperatorContext(lmax=10, spectrum="ricci_shifted")
    g = ctx10.grid
    for _ in range(10):
        u = sh.random_stream_field(10, rng)
        zeta = op.curl_scalar(u)
        curl_sq = sh.inner_h(zeta, zeta)
        ugrid = sh.vector_synthesis(u, g)
        ric_term = sh.grid_integral(
            g, ugrid.values[0] * ugrid.values[0] + ugrid.values[1] * ugrid.values[1]
        )
        lhs = curl_sq - 2.0 * ric_term
        rhs = sh.inner_h(op.stokes_apply(u, 1.0, ctx_shift), u)
        assert lhs == pytest.approx(rhs, abs=1e-8)


# ----------------------------------------------------------------- vorticity


def test_curl_scalar_examples():
    psi = stream_with(4, {(1, 0): 1.0})
    zeta = op.curl_scalar(psi)
    assert zeta.coeffs[sh.mode_index(1, 0)] == pytest.approx(2.0)
    assert np.abs(op.curl_scalar(sh.zero_field(4)).coeffs).max() == 0.0


def test_curl_scalar_finite_difference_oracle():
    # zeta = (1/sin)[d(sin u_phi)/dtheta - d(u_theta)/dphi] via FFT in phi
    # and non-uniform central differences in theta
    lmax = 6
    g = sh.gauss_legendre_grid(400, 25)
    psi = sh.random_stream_field(lmax, np.random.default_rng(7))
    u = sh.vector_synthesis(psi, g).values
    zeta_spec = sh.scalar_synthesis(
        sh.SpectralField(lmax, op.curl_scalar(psi).coeffs, "scalar"), g
    ).values

    F = np.fft.rfft(u[0], axis=1)
    k = np.arange(F.shape[1])
    du_theta_dphi = np.fft.irfft(F * 1j * k, n=g.n_lon, axis=1)
    sin_uphi = g.sin_theta[:, None] * u[1]
    d_sin_uphi_dtheta = np.gradient(sin_uphi, g.theta, axis=0, edge_order=2)
    zeta_fd = (d_sin_uphi_dtheta - du_theta_dphi) / g.sin_theta[:, None]

    interior = slice(4, -4)
    err = np.abs(zeta_fd[interior] - zeta_spec[interior]).max()
    assert err < 3e-3 * np.abs(zeta_spec).max()


# ----------------------------------------------------- convective terms: b


def test_trilinear_b_alternating(ctx10):
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = sh.random_stream_field(10, rng)
        w = sh.random_stream_field(10, rng)
        z = sh.random_stream_field(10, rng)
        assert abs(op.trilinear_b(v, w, w, ctx10)) < 1e-9
        s = op.trilinear_b(v, w, z, ctx10) + op.trilinear_b(v, z, w, ctx10)
        assert abs(s) < 1e-9


def test_trilinear_b_single_mode_self_advection(ctx10):
    # vorticity functionally dependent on the stream: Jacobian vanishes
    for l, m in [(1, 0), (3, 2), (5, 5)]:
        v = sh.unit_stream_mode(10, l, m)
        for lw, mw in [(1, 0), (2, 1), (4, 3)]:
            w = sh.unit_stream_mode(10, lw, mw)
            assert abs(op.trilinear_b(v, v, w, ctx10)) < 1e-12


def test_trilinear_b_finite_difference_oracle(ctx10):
    # independent evaluation: dense grid, numpy.gradient derivatives of the
    # synthesized components, explicit connection terms
    lmax = 5
    ctx = op.OperatorContext(lmax=lmax)
    rng = np.random.default_rng(9)
    v = sh.random_stream_field(lmax, rng)
    w = sh.random_stream_field(lmax, rng)
    z = sh.random_stream_field(lmax, rng)
    b_spec = op.trilinear_b(v, w, z, ctx)

    g = sh.gauss_legendre_grid(500, 41)
    V = sh.vector_synthesis(v, g).values
    W = sh.vector_synthesis(w, g).values
    Z = sh.vector_synthesis(z, g).values
    sin = g.sin_theta[:, None]
    cot = (g.mu / g.sin_theta)[:, None]

    def dphi(f):
        F = np.fft.rfft(f, axis=1)
        return np.fft.irfft(F * 1j * np.arange(F.shape[1]), n=g.n_lon, axis=1)

    dWt_dth = np.gradient(W[0], g.theta, axis=0, edge_order=2)
    dWp_dth = np.gradient(W[1], g.theta, axis=0, edge_order=2)
    conv_t = V[0] * dWt_dth + V[1] * dphi(W[0]) / sin - cot * V[1] * W[1]
    conv_p = V[0] * dWp_dth + V[1] * dphi(W[1]) / sin + cot * V[1] * W[0]
    b_fd = sh.grid_integral(g, conv_t * Z[0] + conv_p * Z[1])
    assert b_fd == pytest.approx(b_spec, rel=2e-4, abs=1e-6)


def test_trilinear_b_band_limit_mismatch(ctx10):
    v = sh.random_stream_field(10, np.random.default_rng(10))
    w = sh.random_stream_field(9, np.random.default_rng(11))
    with pytest.raises(ValueError):
        op.trilinear_b(v, w, w, ctx10)


# ----------------------------------------------------- convective terms: B


def test_nonlinear_B_single_mode_vanishes(ctx10):
    for l, m in [(1, 0), (2, 2), (6, 3)]:
        u = sh.unit_stream_mode(10, l, m)
        assert np.abs(op.nonlinear_B(u, ctx10).coeffs).max() < 1e-9


def test_nonlinear_B_energy_neutral(ctx10):
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = sh.random_stream_field(10, rng)
        B = op.nonlinear_B(u, ctx10)
        v2 = sh.inner_h(op.stokes_apply(u, 1.0), u)
        assert abs(sh.inner_h(B, u)) < 1e-9 * max(v2, 1e-30)


def test_nonlinear_B_matches_trilinear(ctx10):
    rng = np.random.default_rng(13)
    u = sh.random_stream_field(10, rng)
    B = op.nonlinear_B(u, ctx10)
    for l in range(1, 6):
        for m in range(l + 1):
            w = sh.unit_stream_mode(10, l, m)
            assert sh.inner_h(B, w) == pytest.approx(
                op.trilinear_b(u, u, w, ctx10), abs=1e-8
            )
            if m > 0:
                w90 = sh.unit_stream_mode(10, l, m, phase=1j)
                assert sh.inner_h(B, w90) == pytest.approx(
                    op.trilinear_b(u, u, w90, ctx10), abs=1e-8
                )


def test_context_validation():
    with pytest.raises(ValueError):
        op.OperatorContext(lmax=0)
    with pytest.raises(ValueError):
        op.OperatorContext(lmax=4, nu=0.0)
    with pytest.raises(ValueError):
        op.OperatorContext(lmax=4, spectrum="other")
    small = sh.gauss_legendre_grid(5, 11)
    with pytest.raises(ValueError):
        op.OperatorContext(lmax=8, grid=small, dealias=True)
    # dealias off accepts a merely-resolving grid
    ctx = op.OperatorContext(lmax=4, grid=small, dealias=False)
    assert ctx.grid is small
