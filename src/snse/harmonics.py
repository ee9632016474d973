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
    "smooth_length",
    "eval_ylm",
    "scalar_analysis",
    "scalar_synthesis",
    "vector_synthesis",
    "vector_analysis",
    "gradient_synthesis",
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


@lru_cache(maxsize=None)
def basis_eigenvalues(lmax: int) -> np.ndarray:
    """l(l+1) per mode slot (the -Laplacian eigenvalue of each harmonic);
    cached and read-only."""
    ls, _ = mode_degrees(lmax)
    lam = (ls * (ls + 1)).astype(np.float64)
    lam.setflags(write=False)
    return lam


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


def smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: an FFT length that mixed-radix FFTs run
    fast (a prime length can cost ten times as much; Temperton, JCP 1983)."""
    k = max(n, 1)
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


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


def zero_field(lmax: int, kind: str = "stream") -> SpectralField:
    return SpectralField(lmax, np.zeros(n_modes(lmax), dtype=np.complex128), kind)


# ---------------------------------------------------------------------------
# Normalized associated Legendre table
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
#
# Only Pbar is tabulated, padded to P[m, j, l] (zero for l < m) so that one
# batched matmul over m does every Legendre stage.  Derivatives never need a
# second table: by the identity above, sum_l c_l dPbar_l is
# (mu S[l c_l] - S[e_{l+1} c_{l+1}]) / sin(theta) with S the synthesis by
# Pbar, and its adjoint, sum_j dPbar_l(theta_j) F_j, is
# l (P^T (mu F/sin))_l - e_l (P^T (F/sin))_{l-1}.  Both divide by
# sin(theta), which Gauss nodes never make 0.


def _legendre_P(lmax: int, mu: np.ndarray, sin_theta: np.ndarray) -> np.ndarray:
    """P[m, ..., l] = Pbar_l^m at the points mu = cos(theta); zero for l < m."""
    L = lmax + 1
    P = np.zeros((L,) + np.shape(mu) + (L,))
    per_m = (-1,) + (1,) * np.ndim(mu)
    P[0, ..., 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, L):
        P[m, ..., m] = (
            -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_theta * P[m - 1, ..., m - 1]
        )
    for m in range(0, lmax):
        P[m, ..., m + 1] = math.sqrt(2 * m + 3.0) * mu * P[m, ..., m]
    for l in range(2, L):
        m = np.arange(l - 1)                       # every m <= l - 2 at once
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)).reshape(per_m)
        b = np.sqrt(((l - 1.0) ** 2 - m * m)
                    / (4.0 * (l - 1.0) ** 2 - 1.0)).reshape(per_m)
        P[: l - 1, ..., l] = a * (mu * P[: l - 1, ..., l - 1] - b * P[: l - 1, ..., l - 2])
    return P


@lru_cache(maxsize=None)
def _legendre_table(n_lat: int, lmax: int) -> np.ndarray:
    """Cached P[m, j, l] on the n_lat Gauss nodes, shape (lmax+1, n_lat, lmax+1)."""
    mu, _ = np.polynomial.legendre.leggauss(n_lat)
    P = _legendre_P(lmax, mu, np.sin(np.arccos(mu)))
    P.setflags(write=False)
    return P


@lru_cache(maxsize=None)
def _layout(lmax: int) -> tuple:
    """Padded (m, l) layout of band limit lmax: the flat padded slot
    m*(lmax+1) + l of each mode, then l, m and e_l^m (0 for l <= m) per
    padded slot."""
    L = lmax + 1
    ls, ms = mode_degrees(lmax)
    m, l = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    e = np.sqrt(np.maximum(l * l - m * m, 0) * (2 * l + 1) / np.maximum(2 * l - 1, 1))
    out = (ms * L + ls, l.astype(np.float64), m.astype(np.float64), e)
    for arr in out:
        arr.setflags(write=False)
    return out


def _padded(coeffs: np.ndarray, lmax: int) -> np.ndarray:
    """Flat coefficients (n_modes,) -> zero-padded C[m, l]."""
    L = lmax + 1
    C = np.zeros(L * L, dtype=np.complex128)
    C[_layout(lmax)[0]] = coeffs
    return C.reshape(L, L)


def _flat(C: np.ndarray, lmax: int) -> np.ndarray:
    """Padded C[m, l] -> flat coefficients (n_modes,); inverse of _padded."""
    return C.reshape(-1)[_layout(lmax)[0]]


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
    val = P[ma, ..., l] * np.exp(1j * ma * phi)
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
# which is exactly numpy's unnormalized ("forward") irfft of [g_0, g_1, ...]
# and whose analysis is the 1/n_lon-normalized rfft.  The Legendre stage
# works on stacks of columns C[m, l, k]: the complex data is viewed as
# interleaved real columns, so the real table multiplies every column of
# every m in one matmul.


def _legendre_synthesis(X: np.ndarray, lmax: int, n_lat: int) -> np.ndarray:
    """Half spectra G[k, j, m] = sum_l X[m, l, k] Pbar_l^m(theta_j)."""
    P = _legendre_table(n_lat, lmax)
    G = np.matmul(P, X.view(np.float64)).view(np.complex128)
    return G.transpose(2, 1, 0)


def _legendre_analysis(F: np.ndarray, lmax: int, n_lat: int) -> np.ndarray:
    """Adjoint of _legendre_synthesis: A[m, l, k] = sum_j Pbar_l^m(theta_j) F[k, j, m]."""
    P = _legendre_table(n_lat, lmax)
    X = np.ascontiguousarray(F.transpose(2, 1, 0))
    return np.matmul(P.transpose(0, 2, 1), X.view(np.float64)).view(np.complex128)


def _synthesize(parts, n_lon: int) -> np.ndarray:
    """Grid values (k, n_lat, n_lon) of the half spectra parts[k] (n_lat, m)."""
    n_lat, n_m = parts[0].shape
    H = np.zeros((len(parts), n_lat, n_lon // 2 + 1), dtype=np.complex128)
    for k, G in enumerate(parts):
        H[k, :, :n_m] = G
    return np.fft.irfft(H, n=n_lon, axis=-1, norm="forward")


def _analyze_half(values: np.ndarray, lmax: int) -> np.ndarray:
    """Half spectra (..., n_lat, lmax+1) of grid values (..., n_lat, n_lon)."""
    return np.fft.rfft(values, axis=-1, norm="forward")[..., : lmax + 1]


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
    X = _padded(f.coeffs, f.lmax)[..., None]
    G = _legendre_synthesis(X, f.lmax, grid.n_lat)
    return GridField(grid, _synthesize(G, grid.n_lon)[0])


def scalar_analysis(f: GridField, lmax: int) -> SpectralField:
    """Project a scalar grid field onto harmonics up to lmax."""
    grid = f.grid
    _require_resolution(grid, lmax)
    F = _analyze_half(f.values, lmax) * (2.0 * np.pi * grid.weight)[:, None]
    A = _legendre_analysis(F[None], lmax, grid.n_lat)
    return SpectralField(lmax, _flat(A[..., 0], lmax), "scalar")


def _angular_derivatives(f: SpectralField, grid: QuadratureGrid):
    """Half spectra of (1/sin theta) df/dphi and df/dtheta, each (n_lat, lmax+1)."""
    _require_resolution(grid, f.lmax)
    _, l, m, e = _layout(f.lmax)
    C = _padded(f.coeffs, f.lmax)
    # columns [i m c, l c, e_{l+1} c_{l+1}]: the synthesis S of the first is
    # d/dphi, and (mu S[l c] - S[e_{l+1} c_{l+1}]) / sin(theta) is d/dtheta
    X = np.zeros(C.shape + (3,), dtype=np.complex128)
    X[..., 0] = 1j * m * C
    X[..., 1] = l * C
    X[:, :-1, 2] = (e * C)[:, 1:]
    S = _legendre_synthesis(X, f.lmax, grid.n_lat)
    sin = grid.sin_theta[:, None]
    return S[0] / sin, (grid.mu[:, None] * S[1] - S[2]) / sin


def vector_synthesis(psi: SpectralField, grid: QuadratureGrid) -> GridField:
    """Velocity u = Curl psi = -xhat x grad psi in frame components.

    u_theta = (1/sin theta) d(psi)/d(phi),  u_phi = -d(psi)/d(theta).
    """
    dphi, dtheta = _angular_derivatives(psi, grid)
    return GridField(grid, _synthesize([dphi, -dtheta], grid.n_lon))


def gradient_synthesis(chi: SpectralField, grid: QuadratureGrid) -> GridField:
    """Tangent gradient (d(chi)/d(theta), (1/sin theta) d(chi)/d(phi))."""
    dphi, dtheta = _angular_derivatives(chi, grid)
    return GridField(grid, _synthesize([dtheta, dphi], grid.n_lon))


def _curl_coeffs(w: GridField, lmax: int) -> np.ndarray:
    """Coefficients of the scalar curl of a tangent grid field.

    Integration by parts against Curl conj(Y_{l,m}) avoids differentiating
    the samples:  (curl w)_{l,m} = (w, Curl Y_{l,m})
      = 2*pi sum_j w_j [ -i m Pbar(j)/sin(theta_j) * what_theta_m(j)
                         - dPbar(j) * what_phi_m(j) ],
    with the dPbar sum taken by the adjoint derivative identity.
    """
    grid = w.grid
    _require_resolution(grid, lmax)
    F = _analyze_half(w.values, lmax) * (2.0 * np.pi * grid.weight)[:, None]
    F /= grid.sin_theta[:, None]
    cols = np.stack([F[0], grid.mu[:, None] * F[1], F[1]])
    A = _legendre_analysis(cols, lmax, grid.n_lat)
    _, l, m, e = _layout(lmax)
    prev = np.zeros_like(A[..., 2])                # (P^T (F/sin))_{l-1}
    prev[:, 1:] = A[:, :-1, 2]
    out = -1j * m * A[..., 0] - (l * A[..., 1] - e * prev)
    return _flat(out, lmax)


def vector_analysis(w: GridField, lmax: int) -> SpectralField:
    """Stream coefficients of the divergence-free part of a tangent field.

    psi_{l,m} = (curl w)_{l,m} / (l(l+1)): this is the Leray projection
    realized spectrally — gradient (curl-free) components are annihilated.
    """
    zeta = _curl_coeffs(w, lmax)
    lam = basis_eigenvalues(lmax)
    psi = np.zeros_like(zeta)
    psi[1:] = zeta[1:] / lam[1:]
    return SpectralField(lmax, psi, "stream")


# ---------------------------------------------------------------------------
# Quadrature and inner products
# ---------------------------------------------------------------------------


def grid_integral(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Integral over the sphere of pointwise values (scalar samples)."""
    return float((2.0 * np.pi / grid.n_lon) * np.sum(grid.weight @ values))


@lru_cache(maxsize=None)
def _mode_weights(lmax: int) -> np.ndarray:
    """Parseval weight per m>=0 slot: 1 for m=0, 2 for m>0 (conjugate pair);
    cached and read-only."""
    _, ms = mode_degrees(lmax)
    wm = np.where(ms == 0, 1.0, 2.0)
    wm.setflags(write=False)
    return wm


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
