"""Transform-layer tests: quadrature, harmonic evaluation, round trips,
Leray projection, Parseval.  Oracles: closed forms frozen below, scipy's
independent harmonic evaluation, and brute-force quadrature projections."""

import math

import numpy as np
import pytest

from snse import harmonics as sh

from oracles import eval_ylm

# frozen: root of P_2 computed with an independent polynomial root oracle
# (np.roots([3/2, 0, -1/2]) -> +-0.5773502691896257)
P2_ROOT = 0.5773502691896257
SQRT_3_4PI = 0.4886025119029199          # sqrt(3/(4*pi))
Y00 = 0.28209479177387814                # 1/sqrt(4*pi)
COS_COEFF = 2.046653415892977            # sqrt(4*pi/3): (1,0) coefficient of cos(theta)


def test_grid_midpoint_rule():
    g = sh.gauss_legendre_grid(1, 4)
    assert g.mu[0] == pytest.approx(0.0, abs=1e-15)
    assert g.weight[0] == pytest.approx(2.0, abs=1e-15)


def test_grid_two_point_nodes():
    g = sh.gauss_legendre_grid(2, 4)
    assert np.allclose(sorted(g.mu), [-P2_ROOT, P2_ROOT], atol=1e-14)
    assert np.allclose(g.weight, [1.0, 1.0], atol=1e-14)


def test_grid_weights_positive_sum_two():
    for n in (1, 2, 5, 16, 33):
        g = sh.gauss_legendre_grid(n, 4)
        assert np.all(g.weight > 0)
        assert g.weight.sum() == pytest.approx(2.0, abs=1e-13)


def test_grid_integrates_constant_to_4pi():
    g = sh.gauss_legendre_grid(8, 17)
    val = sh.grid_integral(g, np.ones((g.n_lat, g.n_lon)))
    assert val == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_grid_polynomial_exactness():
    # degree <= 2 n_lat - 1 moments of mu are exact
    g = sh.gauss_legendre_grid(6, 4)
    for k in range(0, 12):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(g.weight * g.mu**k) == pytest.approx(exact, abs=1e-14)


def test_grid_validates_counts():
    with pytest.raises(ValueError):
        sh.gauss_legendre_grid(0, 4)


def test_eval_ylm_frozen_values():
    assert eval_ylm(0, 0, 0.3, 1.1) == pytest.approx(Y00, abs=1e-12)
    assert eval_ylm(1, 0, 0.0, 0.0) == pytest.approx(SQRT_3_4PI, abs=1e-12)


def test_eval_ylm_domain_error():
    with pytest.raises(ValueError):
        eval_ylm(2, 3, 0.1, 0.1)


def test_eval_ylm_against_scipy():
    from scipy.special import sph_harm_y

    rng = np.random.default_rng(7)
    for _ in range(60):
        l = int(rng.integers(0, 20))
        m = int(rng.integers(-l, l + 1)) if l else 0
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        ours = eval_ylm(l, m, th, ph)
        ref = complex(sph_harm_y(l, m, th, ph))
        assert ours == pytest.approx(ref, abs=1e-12)


def test_eval_ylm_negative_m_symmetry():
    th, ph = 0.83, 2.4
    for l, m in [(3, 1), (5, 4), (9, 9)]:
        a = eval_ylm(l, -m, th, ph)
        b = (-1) ** m * np.conj(eval_ylm(l, m, th, ph))
        assert a == pytest.approx(b, abs=1e-13)


def test_ylm_quadrature_orthonormality_pairwise():
    g = sh.gauss_legendre_grid(10, 21)
    TH, PH = np.meshgrid(g.theta, g.phi, indexing="ij")
    y21 = eval_ylm(2, 1, TH, PH)
    assert sh.grid_integral(g, np.abs(y21) ** 2) == pytest.approx(1.0, abs=1e-10)
    y31 = eval_ylm(3, 1, TH, PH)
    assert sh.grid_integral(g, (y21 * np.conj(y31)).real) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("lmax", [15, 31])
def test_gram_matrix_identity(lmax):
    # synthesis->analysis on every basis vector == identity columns
    g = sh.gauss_legendre_grid(lmax + 1, 2 * lmax + 1)
    nm = sh.n_modes(lmax)
    worst = 0.0
    for k in range(nm):
        f = sh.zero_field(lmax, "scalar")
        f.coeffs[k] = 1.0
        back = sh.scalar_analysis(sh.scalar_synthesis(f, g), lmax)
        col = back.coeffs.copy()
        col[k] -= 1.0
        worst = max(worst, np.abs(col).max())
    assert worst < 1e-9


def test_scalar_synthesis_constant_mode():
    g = sh.gauss_legendre_grid(6, 13)
    f = sh.zero_field(4, "scalar")
    f.coeffs[0] = 1.0
    vals = sh.scalar_synthesis(f, g).values
    assert np.allclose(vals, Y00, atol=1e-13)


def test_scalar_analysis_of_cos_theta():
    g = sh.gauss_legendre_grid(8, 17)
    vals = np.repeat(g.mu[:, None], g.n_lon, axis=1)
    f = sh.scalar_analysis(sh.GridField(g, vals), 6)
    expected = np.zeros(sh.n_modes(6), dtype=complex)
    expected[sh.mode_index(1, 0)] = COS_COEFF
    assert np.allclose(f.coeffs, expected, atol=1e-12)


def test_scalar_round_trip_random():
    rng = np.random.default_rng(11)
    lmax = 12
    g = sh.gauss_legendre_grid(lmax + 1, 2 * lmax + 1)
    for _ in range(5):
        f = sh.random_stream_field(lmax, rng)
        f = sh.SpectralField(lmax, f.coeffs, "scalar")
        back = sh.scalar_analysis(sh.scalar_synthesis(f, g), lmax)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-10


def test_under_resolved_grid_raises():
    g = sh.gauss_legendre_grid(4, 9)
    f = sh.zero_field(8, "scalar")
    with pytest.raises(ValueError):
        sh.scalar_synthesis(f, g)


def test_vector_synthesis_zonal_example():
    # stream Y_{1,0}: flow is purely azimuthal, u_phi = sqrt(3/4pi) sin(theta)
    g = sh.gauss_legendre_grid(8, 17)
    psi = sh.zero_field(4, "stream")
    psi.coeffs[sh.mode_index(1, 0)] = 1.0
    u = sh.vector_synthesis(psi, g).values
    assert np.abs(u[0]).max() < 1e-14
    expected = SQRT_3_4PI * g.sin_theta[:, None]
    assert np.abs(u[1] - expected).max() < 1e-13


def test_vector_synthesis_zero():
    g = sh.gauss_legendre_grid(6, 13)
    u = sh.vector_synthesis(sh.zero_field(4, "stream"), g).values
    assert np.all(u == 0.0)


def test_vector_synthesis_matches_finite_differences():
    # oracle: FFT derivative in phi, central differences in theta on a
    # dense evaluation of psi along each meridian
    lmax = 6
    g = sh.gauss_legendre_grid(16, 33)
    rng = np.random.default_rng(3)
    psi = sh.random_stream_field(lmax, rng)
    u = sh.vector_synthesis(psi, g).values

    vals = sh.scalar_synthesis(sh.SpectralField(lmax, psi.coeffs, "scalar"), g).values
    F = np.fft.rfft(vals, axis=1)
    k = np.arange(F.shape[1])
    dphi = np.fft.irfft(F * 1j * k, n=g.n_lon, axis=1)
    assert np.abs(u[0] - dphi / g.sin_theta[:, None]).max() < 1e-10

    h = 1e-5
    psi_s = sh.SpectralField(lmax, psi.coeffs, "scalar")
    for j in (2, 8, 13):
        th = g.theta[j]
        for kk in (0, 5):
            ph = g.phi[kk]
            up = _eval_scalar(psi_s, th + h, ph)
            dn = _eval_scalar(psi_s, th - h, ph)
            dtheta = (up - dn) / (2 * h)
            assert u[1][j, kk] == pytest.approx(-dtheta, abs=1e-8)


def _eval_scalar(f, theta, phi):
    total = 0.0 + 0.0j
    ls, ms = sh.mode_degrees(f.lmax)
    for idx in range(len(f.coeffs)):
        c = f.coeffs[idx]
        if c == 0:
            continue
        l, m = int(ls[idx]), int(ms[idx])
        y = eval_ylm(l, m, theta, phi)
        total += c * y
        if m > 0:
            total += np.conj(c) * (-1) ** m * eval_ylm(l, -m, theta, phi)
    return total.real


def divergence_coeffs(w, lmax):
    """Spectral coefficients of div w (= curl of the quarter-turned field)."""
    rotated = sh.GridField(w.grid, np.stack([-w.values[1], w.values[0]]))
    return sh._curl_coeffs(rotated, lmax)


def test_discrete_divergence_vanishes():
    rng = np.random.default_rng(5)
    lmax = 10
    g = sh.gauss_legendre_grid(2 * lmax, 4 * lmax + 1)
    for _ in range(5):
        psi = sh.random_stream_field(lmax, rng)
        w = sh.vector_synthesis(psi, g)
        assert np.abs(divergence_coeffs(w, lmax)).max() < 1e-10


def test_vector_round_trip():
    rng = np.random.default_rng(9)
    lmax = 12
    g = sh.gauss_legendre_grid(lmax + 2, 2 * lmax + 3)
    for _ in range(5):
        psi = sh.random_stream_field(lmax, rng)
        back = sh.vector_analysis(sh.vector_synthesis(psi, g), lmax)
        assert np.abs(back.coeffs - psi.coeffs).max() < 1e-10


def test_leray_annihilates_gradients():
    rng = np.random.default_rng(13)
    lmax = 9
    g = sh.gauss_legendre_grid(lmax + 3, 2 * lmax + 5)
    chi = sh.SpectralField(lmax, sh.random_stream_field(lmax, rng).coeffs, "scalar")
    grad = sh.gradient_synthesis(chi, g)
    assert np.abs(sh.vector_analysis(grad, lmax).coeffs).max() < 1e-10


def test_mixed_field_projection_brute_force():
    # w = Curl Y_{3,2} + grad Y_{1,1}: only the (3,2) stream entry survives.
    # Oracle: quadrature inner products against explicitly evaluated
    # divergence-free basis fields (independent of the transform code path).
    lmax = 5
    g = sh.gauss_legendre_grid(12, 25)
    curl_part = sh.zero_field(lmax, "stream")
    curl_part.coeffs[sh.mode_index(3, 2)] = 0.7 - 0.2j
    grad_part = sh.zero_field(lmax, "scalar")
    grad_part.coeffs[sh.mode_index(1, 1)] = 0.5 + 0.3j
    w_vals = (
        sh.vector_synthesis(curl_part, g).values
        + sh.gradient_synthesis(grad_part, g).values
    )
    w = sh.GridField(g, w_vals)

    psi = sh.vector_analysis(w, lmax)
    expected = curl_part.coeffs
    assert np.abs(psi.coeffs - expected).max() < 1e-10

    # brute force: (w, Curl Y_{l,m}) / lambda_l via explicit harmonics
    TH, PH = np.meshgrid(g.theta, g.phi, indexing="ij")
    for l, m in [(3, 2), (2, 1), (1, 0), (4, 2)]:
        y = eval_ylm(l, m, TH, PH)
        # Curl Y components from the same sign convention
        dth = 1e-6
        yp = eval_ylm(l, m, TH + dth, PH)
        ym = eval_ylm(l, m, TH - dth, PH)
        cy_theta = 1j * m * y / np.sin(TH)
        cy_phi = -(yp - ym) / (2 * dth)
        proj = sh.grid_integral(
            g, (w_vals[0] * np.conj(cy_theta) + w_vals[1] * np.conj(cy_phi)).real
        ) + 1j * sh.grid_integral(
            g, (w_vals[0] * np.conj(cy_theta) + w_vals[1] * np.conj(cy_phi)).imag
        )
        proj /= l * (l + 1)
        assert proj == pytest.approx(complex(psi.coeffs[sh.mode_index(l, m)]), abs=5e-7)


def test_parseval_grid_vs_spectral():
    rng = np.random.default_rng(21)
    lmax = 11
    g = sh.gauss_legendre_grid(2 * lmax, 4 * lmax + 1)
    for _ in range(5):
        psi = sh.random_stream_field(lmax, rng)
        u = sh.vector_synthesis(psi, g).values
        l2 = sh.grid_integral(g, u[0] ** 2 + u[1] ** 2)
        assert l2 == pytest.approx(sh.norm_h(psi) ** 2, abs=1e-9)


def test_unit_mode_norm_one():
    for l, m in [(1, 0), (3, 2), (7, 7), (15, 4)]:
        f = sh.unit_stream_mode(15, l, m)
        assert sh.norm_h(f) == pytest.approx(1.0, abs=1e-9)


def test_stream_field_zeroes_l0():
    c = np.ones(sh.n_modes(3), dtype=complex)
    f = sh.SpectralField(3, c, "stream")
    assert f.coeffs[0] == 0.0


def test_spectral_field_shape_validation():
    with pytest.raises(ValueError):
        sh.SpectralField(3, np.zeros(5), "scalar")


# ------------------------------------------------- FFT lengths and the table


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_smooth_length_is_the_least_5_smooth_length():
    for n, want in [(37, 40), (49, 50), (97, 100), (193, 200), (257, 270),
                    (1, 1), (7, 8), (40, 40)]:
        assert sh.smooth_length(n) == want
    for n in range(1, 400):
        k = sh.smooth_length(n)
        assert k >= n and _is_5_smooth(k)
        assert not any(_is_5_smooth(j) for j in range(n, k))


def test_legendre_table_fits_the_old_two_table_footprint():
    # one table on the mu <= 0 half of the nodes, split by the parity of
    # l - m, no dP table: at most half the (lmax+1)^2 n_lat float64 of the
    # padded P table on every node
    for n_lat, lmax in [(19, 12), (26, 12), (97, 64), (130, 64), (13, 12),
                        (14, 13), (7, 6)]:
        table = sh._legendre_table(n_lat, lmax)
        assert all(part.dtype == np.float64 for part in table)
        assert 2 * sum(part.size for part in table) <= (lmax + 1) ** 2 * n_lat


def test_hemisphere_table_mirrors_the_table_on_every_node():
    # Pbar_l^m(-mu) = (-1)^(l+m) Pbar_l^m(mu): the split table on the south
    # nodes gives the full table on every node, equator included
    for n_lat, lmax in [(13, 12), (14, 12), (19, 12), (20, 32)]:
        g = sh.gauss_legendre_grid(n_lat, 1)
        P = sh._legendre_P(lmax, g.mu, g.sin_theta)          # P[m, j, l]
        l, _, _ = sh._slots(lmax)
        full = np.flatnonzero(l <= lmax)
        X = np.zeros((l.size, lmax + 1), dtype=complex)
        X[full, l[full]] = 1.0                                 # column k: degree k
        got = sh._slot_synthesis(X, lmax, n_lat) * g.sin_theta[:, None]
        assert np.abs(got.transpose(2, 1, 0) - P).max() < 1e-13


# smooth default grids, odd and even explicit grids (the split table has
# an equator node at odd n_lat only) and prime explicit grids
ROUND_TRIP_GRIDS = [
    (5, None), (12, None), (32, None),
    (12, (13, 25)), (12, (19, 37)), (7, (11, 17)), (20, (23, 43)),
    (12, (14, 26)), (20, (32, 64)),
]


def _grid(lmax, dims):
    from snse.operators import product_grid
    return product_grid(lmax) if dims is None else sh.gauss_legendre_grid(*dims)


@pytest.mark.parametrize("lmax, dims", ROUND_TRIP_GRIDS)
def test_round_trips_on_smooth_and_prime_grids(lmax, dims):
    rng = np.random.default_rng(lmax)
    g = _grid(lmax, dims)
    for _ in range(3):
        psi = sh.random_stream_field(lmax, rng)
        chi = sh.SpectralField(lmax, sh.random_stream_field(lmax, rng).coeffs,
                               "scalar")
        back = sh.scalar_analysis(sh.scalar_synthesis(chi, g), lmax)
        assert np.abs(back.coeffs - chi.coeffs).max() < 1e-12
        back = sh.vector_analysis(sh.vector_synthesis(psi, g), lmax)
        assert np.abs(back.coeffs - psi.coeffs).max() < 1e-12
        # both routes share one layout: the public syntheses are the rows
        # [d/dphi, -d/dtheta] and [d/dtheta, d/dphi] of the pass that
        # nonlinear_B runs, bit for bit, so trilinear_b checks its bytes
        for f, rows, public in ((psi, (0, 1), sh.vector_synthesis),
                                (chi, (1, 0), sh.gradient_synthesis)):
            G = sh._thread_pass(g, lmax, 1).synthesize(f.coeffs)
            want = np.stack([G[rows[0]], G[rows[1]]])
            if public is sh.vector_synthesis:
                want[1] = -want[1]
            assert public(f, g).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("lmax, dims", ROUND_TRIP_GRIDS)
def test_leray_identity_on_smooth_and_prime_grids(lmax, dims):
    # P(Curl psi + grad chi) = Curl psi: the gradient part is annihilated
    rng = np.random.default_rng(100 + lmax)
    g = _grid(lmax, dims)
    for _ in range(3):
        psi = sh.random_stream_field(lmax, rng)
        chi = sh.SpectralField(lmax, sh.random_stream_field(lmax, rng).coeffs,
                               "scalar")
        w = sh.GridField(g, sh.vector_synthesis(psi, g).values
                         + sh.gradient_synthesis(chi, g).values)
        assert np.abs(sh.vector_analysis(w, lmax).coeffs - psi.coeffs).max() < 1e-12
        assert np.abs(divergence_coeffs(sh.vector_synthesis(psi, g), lmax)).max() < 1e-12
