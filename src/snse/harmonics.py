"""Scalar and vector spherical-harmonic transforms on the unit sphere.

Grid: Gauss-Legendre nodes in colatitude (exact quadrature, no points at the
poles), uniform nodes in longitude (FFT in the azimuthal index m).  Real
fields are stored spectrally as complex coefficients for m >= 0 only, with
the m < 0 half implied by psi_{l,-m} = (-1)^m conj(psi_{l,m}).

Divergence-free tangent fields are represented by a stream function psi via
u = Curl psi = -xhat x grad psi, whose components in the orthonormal frame
(e_theta, e_phi) are

    u_theta = (1/sin theta) d(psi)/d(phi),      u_phi = -d(psi)/d(theta).

The velocity basis element built from one unit-norm harmonic of degree l has
squared L2 norm l(l+1), so the H inner product of two stream fields is
sum_l l(l+1) * <coefficients>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ParameterError",
    "QuadratureGrid",
    "SpectralField",
    "GridField",
    "n_modes",
    "mode_index",
    "mode_degrees",
    "basis_eigenvalues",
    "gauss_legendre_grid",
    "min_grid",
    "eval_ylm",
    "scalar_analysis",
    "scalar_synthesis",
    "vector_synthesis",
    "vector_analysis",
    "gradient_synthesis",
    "divergence_coeffs",
    "grid_integral",
    "inner_h",
    "norm_h",
    "zero_field",
    "unit_stream_mode",
    "random_stream_field",
]


class ParameterError(ValueError):
    """A constructor argument outside its domain; param names the argument,
    so a caller that knows where the value came from can point there."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def n_modes(lmax: int) -> int:
    """Number of (l, m) slots with 0 <= m <= l <= lmax (l-major layout)."""
    return (lmax + 1) * (lmax + 2) // 2


def mode_index(l: int, m: int) -> int:
    """Flat index of mode (l, m), m >= 0, in the l-major m-minor layout."""
    return l * (l + 1) // 2 + m


@lru_cache(maxsize=None)
def mode_degrees(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (l_of_mode, m_of_mode), each of length n_modes(lmax)."""
    ls = np.concatenate([np.full(l + 1, l, dtype=np.int64) for l in range(lmax + 1)])
    ms = np.concatenate([np.arange(l + 1, dtype=np.int64) for l in range(lmax + 1)])
    ls.setflags(write=False)
    ms.setflags(write=False)
    return ls, ms


def basis_eigenvalues(lmax: int) -> np.ndarray:
    """l(l+1) per mode slot (the -Laplacian eigenvalue of each harmonic)."""
    ls, _ = mode_degrees(lmax)
    return (ls * (ls + 1)).astype(np.float64)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre x uniform-longitude quadrature grid.

    Attributes
    ----------
    n_lat, n_lon : node counts.
    mu : Gauss-Legendre nodes (ascending cos(theta) values).
    weight : Gauss-Legendre weights; sum to 2.
    theta, sin_theta : colatitudes and their sines (never 0: no pole nodes).
    phi : uniform longitudes 2*pi*k/n_lon.
    """

    n_lat: int
    n_lon: int
    mu: np.ndarray
    weight: np.ndarray
    theta: np.ndarray
    sin_theta: np.ndarray
    phi: np.ndarray

    def max_resolved_l(self) -> int:
        """Largest band limit this grid can analyze exactly (degree-wise)."""
        return min(self.n_lat - 1, (self.n_lon - 1) // 2)

    def resolves_product(self, lmax: int) -> bool:
        """2/3-rule check: quadratic products of band limit lmax are exact."""
        n_lat, n_lon = min_grid(lmax, dealias=True)
        return self.n_lat >= n_lat and self.n_lon >= n_lon


def min_grid(lmax: int, dealias: bool = False) -> tuple[int, int]:
    """Smallest (n_lat, n_lon) resolving band limit lmax exactly; with
    dealias, also its quadratic products (2/3 rule: 2 n_lat - 1 >= 3 lmax)."""
    if dealias:
        return (3 * lmax + 2) // 2, 3 * lmax + 1
    return lmax + 1, 2 * lmax + 1


@lru_cache(maxsize=None)
def gauss_legendre_grid(n_lat: int, n_lon: int) -> QuadratureGrid:
    for name, count in (("n_lat", n_lat), ("n_lon", n_lon)):
        if count < 1:
            raise ParameterError(name, f"{name} = {count} must be >= 1")
    mu, w = np.polynomial.legendre.leggauss(n_lat)
    theta = np.arccos(mu)
    for a in (mu, w, theta):
        a.setflags(write=False)
    sin_theta = np.sin(theta)
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
    sin_theta.setflags(write=False)
    phi.setflags(write=False)
    return QuadratureGrid(n_lat, n_lon, mu, w, theta, sin_theta, phi)


@dataclass
class SpectralField:
    """Band-limited real field stored as complex coefficients for m >= 0.

    kind = "scalar": plain function, l = 0 slot meaningful.
    kind = "stream": stream function of a divergence-free tangent field;
    the l = 0 slot must stay zero (constants generate no flow).
    """

    lmax: int
    coeffs: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (n_modes(self.lmax),):
            raise ValueError(
                f"expected {n_modes(self.lmax)} coefficients for lmax={self.lmax}, "
                f"got shape {self.coeffs.shape}"
            )
        if self.kind not in ("scalar", "stream"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "stream":
            self.coeffs[0] = 0.0

    def copy(self) -> "SpectralField":
        return SpectralField(self.lmax, self.coeffs.copy(), self.kind)


@dataclass
class GridField:
    """Field sampled on a QuadratureGrid.

    values shape (n_lat, n_lon) for scalars, (2, n_lat, n_lon) for tangent
    fields in orthonormal-frame components (theta component first).
    """

    grid: QuadratureGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        ok = self.values.shape in (
            (self.grid.n_lat, self.grid.n_lon),
            (2, self.grid.n_lat, self.grid.n_lon),
        )
        if not ok:
            raise ValueError(f"values shape {self.values.shape} does not match grid")

    @property
    def tangent(self) -> bool:
        return self.values.ndim == 3


def zero_field(lmax: int, kind: str = "stream") -> SpectralField:
    return SpectralField(lmax, np.zeros(n_modes(lmax), dtype=np.complex128), kind)


# ---------------------------------------------------------------------------
# Normalized associated Legendre tables
# ---------------------------------------------------------------------------
#
# Pbar_l^m are fully normalized with Condon-Shortley phase:
#   integral_{-1}^{1} Pbar_l^m(x)^2 dx * 2*pi = 1,
# so Y_{l,m} = Pbar_l^m(cos theta) * exp(i m phi) is orthonormal on the
# sphere.  Stable l-increasing three-term recurrence (raw factorial forms
# overflow past l ~ 30):
#   Pbar_0^0 = sqrt(1/4pi)
#   Pbar_m^m = -sqrt((2m+1)/(2m)) * sin(theta) * Pbar_{m-1}^{m-1}
#   Pbar_{m+1}^m = sqrt(2m+3) * mu * Pbar_m^m
#   Pbar_l^m = a_l^m (mu Pbar_{l-1}^m - b_l^m Pbar_{l-2}^m)
#     a_l^m = sqrt((4l^2-1)/(l^2-m^2)),
#     b_l^m = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1))
# and the theta-derivative
#   d(Pbar_l^m)/d(theta) = (l mu Pbar_l^m - e_l^m Pbar_{l-1}^m)/sin(theta),
#     e_l^m = sqrt((l^2-m^2)(2l+1)/(2l-1))   (e_m^m = 0).


def _legendre_P(lmax: int, mu: np.ndarray, sin_theta: np.ndarray) -> np.ndarray:
    nm = n_modes(lmax)
    P = np.zeros((nm,) + mu.shape)
    P[mode_index(0, 0)] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, lmax + 1):
        P[mode_index(m, m)] = (
            -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_theta * P[mode_index(m - 1, m - 1)]
        )
    for m in range(0, lmax):
        P[mode_index(m + 1, m)] = math.sqrt(2 * m + 3.0) * mu * P[mode_index(m, m)]
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[mode_index(l, m)] = a * (
                mu * P[mode_index(l - 1, m)] - b * P[mode_index(l - 2, m)]
            )
    return P


def _legendre_dP(lmax: int, mu: np.ndarray, sin_theta: np.ndarray,
                 P: np.ndarray) -> np.ndarray:
    # valid away from the poles only; Gauss nodes never hit sin(theta) = 0
    dP = np.zeros_like(P)
    for m in range(0, lmax + 1):
        dP[mode_index(m, m)] = m * mu * P[mode_index(m, m)] / sin_theta
        for l in range(m + 1, lmax + 1):
            e = math.sqrt((l * l - m * m) * (2 * l + 1.0) / (2 * l - 1.0))
            dP[mode_index(l, m)] = (
                l * mu * P[mode_index(l, m)] - e * P[mode_index(l - 1, m)]
            ) / sin_theta
    return dP


@lru_cache(maxsize=None)
def _legendre_tables(n_lat: int, lmax: int):
    """Cached tables on the n_lat Gauss grid: P, dP/dtheta, shape (n_modes, n_lat)."""
    mu, _ = np.polynomial.legendre.leggauss(n_lat)
    sin_theta = np.sin(np.arccos(mu))
    P = _legendre_P(lmax, mu, sin_theta)
    dP = _legendre_dP(lmax, mu, sin_theta, P)
    P.setflags(write=False)
    dP.setflags(write=False)
    return P, dP


@lru_cache(maxsize=None)
def _m_slices(lmax: int) -> tuple:
    """For each m, the flat indices of modes (l, m), l = m..lmax."""
    return tuple(
        np.array([mode_index(l, m) for l in range(m, lmax + 1)]) for m in range(lmax + 1)
    )


def eval_ylm(l: int, m: int, theta, phi) -> complex | np.ndarray:
    """Orthonormal spherical harmonic Y_{l,m}(theta, phi), any |m| <= l.

    Condon-Shortley phase included; Y_{l,-m} = (-1)^m conj(Y_{l,m}).
    """
    if abs(m) > l:
        raise ValueError(f"|m|={abs(m)} exceeds l={l}")
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    ma = abs(m)
    P = _legendre_P(l, np.cos(theta), np.sin(theta))
    val = P[mode_index(l, ma)] * np.exp(1j * ma * phi)
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    if val.ndim == 0:
        return complex(val)
    return val


# ---------------------------------------------------------------------------
# Longitude FFT conventions
# ---------------------------------------------------------------------------
# A real field with half-spectrum coefficients g_m(theta) (m >= 0) is
#   f(theta, phi) = g_0 + sum_{m>=1} [g_m e^{i m phi} + conj(g_m) e^{-i m phi}],
# which is exactly numpy's irfft of n_lon * [g_0, g_1, ...] and whose
# analysis is rfft(f)/n_lon.  All synthesis/analysis below reduce,
# per azimuthal index m, to a dense Legendre matrix product over latitude.


def _half_spectrum(coeffs: np.ndarray, lmax: int, table: np.ndarray, n_lat: int,
                   per_mode: np.ndarray | None = None) -> np.ndarray:
    """g_m(theta_j) = sum_l c_{l,m} table_{l,m}(theta_j); shape (n_lat, lmax+1)."""
    c = coeffs if per_mode is None else coeffs * per_mode
    G = np.empty((n_lat, lmax + 1), dtype=np.complex128)
    for m, idx in enumerate(_m_slices(lmax)):
        G[:, m] = table[idx].T @ c[idx]
    return G


def _synthesize(G: np.ndarray, n_lon: int) -> np.ndarray:
    n_half = n_lon // 2 + 1
    F = np.zeros((G.shape[0], n_half), dtype=np.complex128)
    F[:, : G.shape[1]] = G
    return np.fft.irfft(F * n_lon, n=n_lon, axis=1)


def _analyze_half(values: np.ndarray, lmax: int) -> np.ndarray:
    """rfft/n_lon, truncated/padded to m = 0..lmax columns."""
    n_lon = values.shape[1]
    F = np.fft.rfft(values, axis=1) / n_lon
    out = np.zeros((values.shape[0], lmax + 1), dtype=np.complex128)
    mmax = min(lmax, F.shape[1] - 1)
    out[:, : mmax + 1] = F[:, : mmax + 1]
    return out


def _require_resolution(grid: QuadratureGrid, lmax: int):
    n_lat, n_lon = min_grid(lmax)
    if grid.n_lat < n_lat or grid.n_lon < n_lon:
        raise ValueError(
            f"grid ({grid.n_lat} x {grid.n_lon}) under-resolves band limit "
            f"{lmax}; need n_lat >= {n_lat}, n_lon >= {n_lon}"
        )


def scalar_synthesis(f: SpectralField, grid: QuadratureGrid) -> GridField:
    """Evaluate a spectral scalar on the grid (inverse of scalar_analysis)."""
    _require_resolution(grid, f.lmax)
    P, _ = _legendre_tables(grid.n_lat, f.lmax)
    G = _half_spectrum(f.coeffs, f.lmax, P, grid.n_lat)
    return GridField(grid, _synthesize(G, grid.n_lon))


def scalar_analysis(f: GridField, lmax: int | None = None) -> SpectralField:
    """Project a scalar grid field onto harmonics up to lmax."""
    grid = f.grid
    if lmax is None:
        lmax = grid.max_resolved_l()
    _require_resolution(grid, lmax)
    P, _ = _legendre_tables(grid.n_lat, lmax)
    F = _analyze_half(f.values, lmax)          # (n_lat, lmax+1)
    Fw = F * (2.0 * np.pi * grid.weight)[:, None]
    coeffs = np.zeros(n_modes(lmax), dtype=np.complex128)
    for m, idx in enumerate(_m_slices(lmax)):
        coeffs[idx] = P[idx] @ Fw[:, m]
    return SpectralField(lmax, coeffs, "scalar")


def vector_synthesis(psi: SpectralField, grid: QuadratureGrid) -> GridField:
    """Velocity u = Curl psi = -xhat x grad psi in frame components.

    u_theta = (1/sin theta) d(psi)/d(phi),  u_phi = -d(psi)/d(theta).
    """
    _require_resolution(grid, psi.lmax)
    P, dP = _legendre_tables(grid.n_lat, psi.lmax)
    _, ms = mode_degrees(psi.lmax)
    Gt = _half_spectrum(psi.coeffs, psi.lmax, P, grid.n_lat, per_mode=1j * ms)
    Gt /= grid.sin_theta[:, None]
    Gp = -_half_spectrum(psi.coeffs, psi.lmax, dP, grid.n_lat)
    u = np.stack([_synthesize(Gt, grid.n_lon), _synthesize(Gp, grid.n_lon)])
    return GridField(grid, u)


def gradient_synthesis(chi: SpectralField, grid: QuadratureGrid) -> GridField:
    """Tangent gradient (d(chi)/d(theta), (1/sin theta) d(chi)/d(phi))."""
    _require_resolution(grid, chi.lmax)
    P, dP = _legendre_tables(grid.n_lat, chi.lmax)
    _, ms = mode_degrees(chi.lmax)
    Gt = _half_spectrum(chi.coeffs, chi.lmax, dP, grid.n_lat)
    Gp = _half_spectrum(chi.coeffs, chi.lmax, P, grid.n_lat, per_mode=1j * ms)
    Gp /= grid.sin_theta[:, None]
    g = np.stack([_synthesize(Gt, grid.n_lon), _synthesize(Gp, grid.n_lon)])
    return GridField(grid, g)


def _curl_coeffs(w: GridField, lmax: int) -> np.ndarray:
    """Coefficients of the scalar curl of a tangent grid field.

    Integration by parts against Curl conj(Y_{l,m}) avoids differentiating
    the samples:  (curl w)_{l,m} = (w, Curl Y_{l,m})
      = 2*pi sum_j w_j [ -i m Pbar(j)/sin(theta_j) * what_theta_m(j)
                         - dPbar(j) * what_phi_m(j) ].
    """
    grid = w.grid
    _require_resolution(grid, lmax)
    P, dP = _legendre_tables(grid.n_lat, lmax)
    Ft = _analyze_half(w.values[0], lmax) * (2.0 * np.pi * grid.weight)[:, None]
    Fp = _analyze_half(w.values[1], lmax) * (2.0 * np.pi * grid.weight)[:, None]
    Ft /= grid.sin_theta[:, None]
    out = np.zeros(n_modes(lmax), dtype=np.complex128)
    for m, idx in enumerate(_m_slices(lmax)):
        out[idx] = -1j * m * (P[idx] @ Ft[:, m]) - dP[idx] @ Fp[:, m]
    return out


def vector_analysis(w: GridField, lmax: int | None = None) -> SpectralField:
    """Stream coefficients of the divergence-free part of a tangent field.

    psi_{l,m} = (curl w)_{l,m} / (l(l+1)): this is the Leray projection
    realized spectrally — gradient (curl-free) components are annihilated.
    """
    if lmax is None:
        lmax = w.grid.max_resolved_l()
    zeta = _curl_coeffs(w, lmax)
    lam = basis_eigenvalues(lmax)
    psi = np.zeros_like(zeta)
    psi[1:] = zeta[1:] / lam[1:]
    return SpectralField(lmax, psi, "stream")


def divergence_coeffs(w: GridField, lmax: int) -> np.ndarray:
    """Spectral coefficients of div w (= curl of the quarter-turned field)."""
    rotated = GridField(w.grid, np.stack([-w.values[1], w.values[0]]))
    return _curl_coeffs(rotated, lmax)


# ---------------------------------------------------------------------------
# Quadrature and inner products
# ---------------------------------------------------------------------------


def grid_integral(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Integral over the sphere of pointwise values (scalar samples)."""
    return float((2.0 * np.pi / grid.n_lon) * np.sum(grid.weight @ values))


def _mode_weights(lmax: int) -> np.ndarray:
    """Parseval weight per m>=0 slot: 1 for m=0, 2 for m>0 (conjugate pair)."""
    _, ms = mode_degrees(lmax)
    return np.where(ms == 0, 1.0, 2.0)


def inner_h(a: SpectralField, b: SpectralField) -> float:
    """H (= L2 of velocity for streams, L2 of values for scalars) pairing."""
    if a.lmax != b.lmax or a.kind != b.kind:
        raise ValueError("fields must share lmax and kind")
    wm = _mode_weights(a.lmax)
    cross = np.real(a.coeffs * np.conj(b.coeffs)) * wm
    if a.kind == "stream":
        cross = cross * basis_eigenvalues(a.lmax)
    return float(np.sum(cross))


def norm_h(a: SpectralField) -> float:
    return math.sqrt(max(inner_h(a, a), 0.0))


# ---------------------------------------------------------------------------
# Field constructors for tests and experiments
# ---------------------------------------------------------------------------


def unit_stream_mode(lmax: int, l: int, m: int = 0, phase: complex = 1.0) -> SpectralField:
    """Real single-harmonic velocity field with |u|_H = 1.

    For m = 0 the coefficient is lam^{-1/2}; for m > 0 the real field uses
    the conjugate pair, so each of the two slots carries lam^{-1/2}/sqrt(2).
    """
    if not (1 <= l <= lmax) or not (0 <= m <= l):
        raise ValueError(f"mode (l = {l}, m = {m}) outside 1 <= l <= lmax = "
                         f"{lmax}, 0 <= m <= l")
    c = np.zeros(n_modes(lmax), dtype=np.complex128)
    lam = l * (l + 1.0)
    amp = lam ** -0.5 if m == 0 else lam ** -0.5 / math.sqrt(2.0)
    c[mode_index(l, m)] = amp * (phase / abs(phase))
    return SpectralField(lmax, c, "stream")


def random_stream_field(lmax: int, rng: np.random.Generator,
                        decay: float = 2.0, norm: float = 1.0) -> SpectralField:
    """Random smooth divergence-free field, coefficients ~ l^{-decay}, |u|_H = norm."""
    ls, ms = mode_degrees(lmax)
    c = rng.standard_normal(n_modes(lmax)) + 1j * rng.standard_normal(n_modes(lmax))
    c[ms == 0] = c[ms == 0].real
    c *= np.where(ls > 0, ls.astype(float), 1.0) ** (-decay)
    c[0] = 0.0
    f = SpectralField(lmax, c, "stream")
    h = norm_h(f)
    if h > 0:
        f.coeffs *= norm / h
    return f
