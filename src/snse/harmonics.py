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
import threading
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
def _gauss_nodes(n_lat: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights; cached and read-only.
    Both are exactly symmetric about 0, which the Legendre table uses."""
    mu, w = np.polynomial.legendre.leggauss(n_lat)
    for a in (mu, w):
        a.setflags(write=False)
    return mu, w


@lru_cache(maxsize=None)
def gauss_legendre_grid(n_lat: int, n_lon: int) -> QuadratureGrid:
    for name, count in (("n_lat", n_lat), ("n_lon", n_lon)):
        if count < 1:
            raise ParameterError(name, f"{name} = {count} must be >= 1")
    mu, w = _gauss_nodes(n_lat)
    theta = np.arccos(mu)
    theta.setflags(write=False)
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
    coeffs is (n_modes,), or (n_paths, n_modes) for a stack of fields of
    one kind, one path per row, which the solver steps in lockstep.
    """

    lmax: int
    coeffs: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim > 2 or self.coeffs.shape[-1:] != (n_modes(self.lmax),):
            raise ValueError(
                f"expected {n_modes(self.lmax)} coefficients for lmax={self.lmax}, "
                f"got shape {self.coeffs.shape}"
            )
        if self.kind not in ("scalar", "stream"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "stream":
            self.coeffs[..., 0] = 0.0

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
# One table, Pbar / sin(theta), on the mu <= 0 half of the Gauss nodes only:
# numpy's Gauss-Legendre nodes and weights are exactly symmetric, and
#   Pbar_l^m(-mu) = (-1)^(l+m) Pbar_l^m(mu),
# so the part of a sum over l whose l - m is even (E) takes the same value
# at mu and -mu, and the part whose l - m is odd (O) changes sign: the node
# -mu_j gets E_j - O_j where mu_j gets E_j + O_j (Schaeffer, G^3 2013,
# arXiv:1202.6522).  The table keeps the two parts apart, each packed from
# l = m on and zero past lmax, so that one batched matmul over m does each,
# at half the products of a table on every node.  O vanishes at an equator
# node (odd n_lat) and has no slot at m = lmax, so its part skips both.
# Derivatives never need a second table: by the identity above, sum_l c_l
# dPbar_l is (mu S[l c_l] - S[e_{l+1} c_{l+1}]) / sin(theta) with S the
# synthesis by Pbar, and its adjoint, sum_j dPbar_l(theta_j) F_j, is
# l (P^T (mu F/sin))_l - e_l (P^T (F/sin))_{l-1}.  Both divide by
# sin(theta), which Gauss nodes never make 0, and the table has done so;
# the plain stages multiply by sin(theta) at the nodes.


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
def _slots(lmax: int) -> tuple:
    """Slots of the split table, flattened: the even part's (lmax+1) x
    ceil((lmax+1)/2) slots (m, k) of degree l = m + 2k, then the odd part's
    lmax x (lmax+1)//2 slots of degree l = m + 2k + 1.  The one coefficient
    layout of every transform: returns l and m per slot (l > lmax: an empty
    slot, which a synthesis reads as 0) and the slot of each mode."""
    L = lmax + 1
    ms, ls = [], []
    for parity, n_m, width in ((0, L, (L + 1) // 2), (1, lmax, L // 2)):
        m, k = np.meshgrid(np.arange(n_m), np.arange(width), indexing="ij")
        ms.append(m.ravel())
        ls.append((m + 2 * k + parity).ravel())
    m, l = np.concatenate(ms), np.concatenate(ls)
    full = l <= lmax
    of_mode = np.empty(n_modes(lmax), dtype=np.int64)
    of_mode[mode_index(l[full], m[full])] = np.flatnonzero(full)
    out = (l, m, of_mode)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _legendre_table(n_lat: int, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (even, odd) table of Pbar / sin(theta) on the Gauss nodes
    mu_j <= 0 of n_lat: even[m, j, k] = Pbar_{m+2k}^m(mu_j) / sin(theta_j),
    shape (lmax+1, ceil(n_lat/2), ceil((lmax+1)/2)), and odd[m, j, k] the
    same of Pbar_{m+2k+1}^m for m < lmax and mu_j < 0, shape (lmax,
    n_lat//2, (lmax+1)//2); zero past lmax.  Every derivative column is
    divided by sin(theta) (see above), and the other stages multiply by it."""
    L = lmax + 1
    mu = _gauss_nodes(n_lat)[0][: (n_lat + 1) // 2]
    sin = np.sin(np.arccos(mu))
    P = _legendre_P(lmax, mu, sin) / sin[:, None]
    even = np.zeros((L, mu.size, (L + 1) // 2))
    odd = np.zeros((lmax, n_lat // 2, L // 2))
    for m in range(L):
        even[m, :, : (L - m + 1) // 2] = P[m, :, m::2]
        if m < lmax:
            odd[m, :, : (L - m) // 2] = P[m, : n_lat // 2, m + 1 :: 2]
    out = (even, odd)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _derivative_columns(lmax: int, n_fields: int) -> tuple:
    """Mode index and factor of every synthesis column per slot, for the
    fields f_k = lam^k psi, k < n_fields (lam = l(l+1)): column k takes
    i m f_k, column n_fields + k takes l f_k and column 2 n_fields + k takes
    e_{l+1}^m f_k(l+1), whose syntheses give the angular derivatives (see
    the table above).  An empty slot has factor 0."""
    l, m, _ = _slots(lmax)
    up = np.minimum(l + 1, lmax)
    full, full_up = l <= lmax, l + 1 <= lmax
    e_up = np.sqrt(np.maximum(up * up - m * m, 0) * (2 * up + 1) / (2 * up - 1))
    lam, lam_up = l * (l + 1.0), up * (up + 1.0)
    here = np.where(full, mode_index(np.minimum(l, lmax), m), 0)
    there = np.where(full_up, mode_index(up, m), 0)
    ks = range(n_fields)
    src = [here for _ in ks] + [here for _ in ks] + [there for _ in ks]
    fac = ([np.where(full, 1j * m * lam**k, 0) for k in ks]
           + [np.where(full, l * lam**k, 0) for k in ks]
           + [np.where(full_up, e_up * lam_up**k, 0) for k in ks])
    out = (np.stack(src, axis=1), np.stack(fac, axis=1).astype(np.complex128))
    for arr in out:
        arr.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Longitude FFT conventions
# ---------------------------------------------------------------------------
# A real field with half-spectrum coefficients g_m(theta) (m >= 0) is
#   f(theta, phi) = g_0 + sum_{m>=1} [g_m e^{i m phi} + conj(g_m) e^{-i m phi}],
# which is exactly numpy's unnormalized ("forward") irfft of [g_0, g_1, ...]
# and whose analysis is the 1/n_lon-normalized rfft.  The Legendre stage
# works on columns X[slot, k] in _slots order: the complex data is viewed as
# interleaved real columns, so the real table multiplies every column of
# every m in one matmul per parity.


def _hemisphere_synthesis(X: np.ndarray, table: tuple, out: np.ndarray,
                          halves: np.ndarray, odd_part: np.ndarray) -> None:
    """out[..., k, j, m] = sum_l X[..., slot(m, l), k] Pbar_l^m(theta_j) /
    sin(theta_j) on every node, from the split table.  X (..., n_slots, k)
    in _slots order, out (..., k, n_lat, lmax+1); halves (..., lmax+1, 2,
    ceil(n_lat/2), k), the south rows and the mirrors of the north rows,
    and odd_part (..., lmax, n_lat//2, k) are work arrays, all complex.  A
    leading path axis (...) broadcasts the table, so every matmul has the
    shapes of one path."""
    even, odd = table
    L, h, width = even.shape
    h_odd, split, k2 = odd.shape[1], L * width, 2 * X.shape[-1]
    lead, Xf = X.shape[:-2], X.view(np.float64)
    south, north = halves[..., 0, :, :], halves[..., 1, :h_odd, :]
    np.matmul(even, Xf[..., :split, :].reshape(lead + (L, width, k2)),
              out=south.view(np.float64))
    np.matmul(odd, Xf[..., split:, :].reshape(lead + (L - 1, odd.shape[2], k2)),
              out=odd_part.view(np.float64))
    np.subtract(south[..., :-1, :h_odd, :], odd_part, out=north[..., :-1, :, :])
    north[..., -1, :, :] = south[..., -1, :h_odd, :]
    south[..., :-1, :h_odd, :] += odd_part
    np.copyto(out[..., :h, :], south.swapaxes(-1, -3))
    np.copyto(out[..., ::-1, :][..., :h_odd, :], north.swapaxes(-1, -3))


def _hemisphere_analysis(F: np.ndarray, factor: np.ndarray, table: tuple,
                         even_in: np.ndarray, odd_in: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """out[..., slot(m, l), k] = sum_j Pbar_l^m(theta_j) c_j F[..., k, j, m]
    over every node, with node factors c_j symmetric about the equator.  F
    is (..., k, n_lat, >= lmax+1); factor holds c_j sin(theta_j) (the table
    holds Pbar / sin) of the nodes mu_j <= 0, halved at an equator node,
    which the fold of F counts twice.  even_in (..., lmax+1, ceil(n_lat/2),
    k) and odd_in (..., lmax, n_lat//2, k) are work arrays; out is (...,
    n_slots, k), all complex."""
    even, odd = table
    L, h, width = even.shape
    h_odd, k2 = odd.shape[1], 2 * F.shape[-3]
    lead, split = F.shape[:-3], L * width
    Fm = F.swapaxes(-1, -3)                         # [..., m, j, k]
    np.add(Fm[..., :L, :h, :], Fm[..., :L, ::-1, :][..., :h, :], out=even_in)
    even_in *= factor[:, None]
    np.subtract(Fm[..., : L - 1, :h_odd, :],
                Fm[..., : L - 1, ::-1, :][..., :h_odd, :], out=odd_in)
    odd_in *= factor[:h_odd, None]
    outf = out.view(np.float64)
    np.matmul(even.transpose(0, 2, 1), even_in.view(np.float64),
              out=outf[..., :split, :].reshape(lead + (L, width, k2)))
    np.matmul(odd.transpose(0, 2, 1), odd_in.view(np.float64),
              out=outf[..., split:, :].reshape(lead + (L - 1, odd.shape[2], k2)))
    return out


@lru_cache(maxsize=None)
def _fold_factor(n_lat: int, quadrature: bool) -> np.ndarray:
    """The factor of _hemisphere_analysis on the nodes mu_j <= 0: sin(theta_j)
    times the quadrature factor 2 pi w_j, or times 1; halved at an equator
    node."""
    mu, w = (a[: (n_lat + 1) // 2] for a in _gauss_nodes(n_lat))
    c = np.sin(np.arccos(mu)) * (2.0 * np.pi * w if quadrature else 1.0)
    if n_lat % 2:
        c[-1] *= 0.5
    c.setflags(write=False)
    return c


def _slot_synthesis(X: np.ndarray, lmax: int, n_lat: int) -> np.ndarray:
    """G[k, j, m] = sum_l X[slot(m, l), k] Pbar_l^m(theta_j) / sin(theta_j)
    for X (n_slots, k) in _slots order, in new arrays."""
    L, k = lmax + 1, X.shape[-1]
    G = np.empty((k, n_lat, L), dtype=np.complex128)
    _hemisphere_synthesis(
        X, _legendre_table(n_lat, lmax), G,
        np.empty((L, 2, (n_lat + 1) // 2, k), dtype=np.complex128),
        np.empty((lmax, n_lat // 2, k), dtype=np.complex128))
    return G


def _slot_analysis(F: np.ndarray, lmax: int, n_lat: int) -> np.ndarray:
    """A[mode_index(l, m), k] = sum_j Pbar_l^m(theta_j) F[k, j, m] for F (k,
    n_lat, >= lmax+1), read from the slots of the adjoint of _slot_synthesis
    times sin(theta), in new arrays."""
    L, k, (l, _, of_mode) = lmax + 1, F.shape[0], _slots(lmax)
    return _hemisphere_analysis(
        F, _fold_factor(n_lat, False), _legendre_table(n_lat, lmax),
        np.empty((L, (n_lat + 1) // 2, k), dtype=np.complex128),
        np.empty((lmax, n_lat // 2, k), dtype=np.complex128),
        np.empty((l.size, k), dtype=np.complex128))[of_mode]


def _synthesize(parts, n_lon: int) -> np.ndarray:
    """Grid values (k, n_lat, n_lon) of the half spectra parts[k] (n_lat, m)."""
    n_lat, n_m = parts[0].shape
    H = np.zeros((len(parts), n_lat, n_lon // 2 + 1), dtype=np.complex128)
    H[..., :n_m] = parts
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
    l, _, of_mode = _slots(f.lmax)
    X = np.zeros((l.size, 1), dtype=np.complex128)      # empty slots read 0
    X[of_mode, 0] = f.coeffs
    G = _slot_synthesis(X, f.lmax, grid.n_lat)
    G *= np.sin(np.arccos(-np.abs(grid.mu)))[:, None]   # the table's sin, mirrored
    return GridField(grid, _synthesize(G, grid.n_lon)[0])


def scalar_analysis(f: GridField, lmax: int) -> SpectralField:
    """Project a scalar grid field onto harmonics up to lmax."""
    grid = f.grid
    _require_resolution(grid, lmax)
    F = _analyze_half(f.values, lmax) * (2.0 * np.pi * grid.weight)[:, None]
    return SpectralField(lmax, _slot_analysis(F[None], lmax, grid.n_lat)[:, 0],
                         "scalar")


def _angular_derivatives(f: SpectralField, grid: QuadratureGrid):
    """Half spectra of (1/sin theta) df/dphi and df/dtheta, each (n_lat, lmax+1)."""
    _require_resolution(grid, f.lmax)
    src, fac = _derivative_columns(f.lmax, 1)
    S = _slot_synthesis(f.coeffs[src] * fac, f.lmax, grid.n_lat)
    return S[0], grid.mu[:, None] * S[1] - S[2]


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
    A = _slot_analysis(cols, lmax, grid.n_lat)
    l, m = mode_degrees(lmax)
    e = np.sqrt((l * l - m * m) * (2 * l + 1) / np.maximum(2 * l - 1, 1))
    # (P^T (F/sin))_{l-1}; at l = m there is no such degree, and e_l^m = 0
    prev = A[mode_index(np.maximum(l - 1, m), m), 2]
    return -1j * m * A[:, 0] - (l * A[:, 1] - e * prev)


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
# One pass per nonlinear term
# ---------------------------------------------------------------------------
#
# nonlinear_B and l4_norm need the first derivatives of psi (and of its
# vorticity) on a grid, and B one analysis of their product.  A pass does
# each with one Legendre synthesis of every derivative column, one irfft and
# one rfft, in work arrays that are views of one buffer per thread: the
# helper thread of solver.run runs passes beside the calling thread.  The
# views of a (grid, lmax, fields) are carved once, and stages that are never
# alive together share memory, so every pass of a thread fits in the
# largest one.  Every call writes each array it reads, so nothing carries
# over from an earlier pass, also not from a field that overflowed.

_thread_work = threading.local()


class _Pass:
    """The derivative synthesis of n_fields fields and one scalar analysis
    at band limit lmax on grid, for one path (lead ()) or a stack of
    lead[0] paths, in work arrays carved from one thread's buffer.  Arrays
    it returns are views of that buffer: valid until the thread's next
    pass."""

    def __init__(self, grid: QuadratureGrid, lmax: int, n_fields: int,
                 lead: tuple = ()):
        n, L, c = grid.n_lat, lmax + 1, 3 * n_fields
        self.n_lon, self.n_fields = grid.n_lon, n_fields
        self.table = _legendre_table(n, lmax)
        self.src, self.fac = _derivative_columns(lmax, n_fields)
        self.of_mode = _slots(lmax)[2]
        self.factor = _fold_factor(n, True)
        self.mu = grid.mu[:, None]
        n_slots, h, h_odd = self.src.shape[0], (n + 1) // 2, n // 2
        n_half = grid.n_lon // 2 + 1
        z, r = np.complex128, np.float64
        # stages of one region are never alive together: the synthesis
        # columns with the odd part of their Legendre sums, the half
        # spectra, the rfft output with the analysis output; the Legendre
        # sums on each half, the grid values, the folded rows
        self.regions = tuple(
            [[(name, lead + shape, dtype) for name, shape, dtype in stage]
             for stage in region] for region in (
                ([("X", (n_slots, c), z), ("odd_part", (lmax, h_odd, c), z)],
                 [("H", (c, n, n_half), z)],
                 [("spectrum", (n, n_half), z), ("A", (n_slots, 1), z)]),
                ([("halves", (L, 2, h, c), z)],
                 [("G", (2 * n_fields, n, grid.n_lon), r)],
                 [("even_in", (L, h, 1), z), ("odd_in", (lmax, h_odd, 1), z)])))

    def carve(self, buf: np.ndarray | None = None) -> int:
        """The float64 count the pass takes, and with buf its views into
        buf: the regions follow each other, every stage of a region starts
        at the region's start, and every array at a 64-byte boundary."""
        start = 0
        for region in self.regions:
            end = start
            for stage in region:
                at = start
                for name, shape, dtype in stage:
                    size = math.prod(shape) * (2 if dtype is np.complex128 else 1)
                    if buf is not None:
                        view = buf[at : at + size].view(dtype).reshape(shape)
                        setattr(self, name, view)
                    at += -(-size // 8) * 8
                end = max(end, at)
            start = end
        return start

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values (..., 2 n_fields, n_lat, n_lon): (1/sin theta) df/dphi
        of each field f_k = lam^k psi, psi with coefficients coeffs (...,
        n_modes), then df/dtheta of each.  One synthesis of 3 n_fields
        columns, one irfft."""
        F, L = self.n_fields, self.halves.shape[-4]
        coeffs.take(self.src, axis=-1, out=self.X, mode="clip")
        self.X *= self.fac
        H = self.H
        _hemisphere_synthesis(self.X, self.table, H[..., :L], self.halves,
                              self.odd_part)
        # (mu S[l f] - S[e f(l+1)]) / sin
        d_theta = H[..., F : 2 * F, :, :L]
        d_theta *= self.mu
        d_theta -= H[..., 2 * F :, :, :L]
        # irfft runs faster on a zero-padded spectrum than when it pads
        H[..., : 2 * F, :, L:] = 0.0
        return np.fft.irfft(H[..., : 2 * F, :, :], n=self.n_lon, axis=-1,
                            norm="forward", out=self.G)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Flat coefficients (..., n_modes), a new array, of the scalar
        analysis of grid values (..., n_lat, n_lon); values may be a row of
        synthesize's result."""
        F = np.fft.rfft(values, axis=-1, norm="forward", out=self.spectrum)
        _hemisphere_analysis(F[..., None, :, :], self.factor, self.table,
                             self.even_in, self.odd_in, self.A)
        return self.A[..., self.of_mode, 0]


def _thread_pass(grid: QuadratureGrid, lmax: int, n_fields: int,
                 lead: tuple = ()) -> _Pass:
    """This thread's _Pass of (grid, lmax, n_fields, lead), carved once
    from the thread's one buffer; a pass that needs more than the buffer
    holds replaces it, and the passes of the old one are carved again when
    next used."""
    passes = getattr(_thread_work, "passes", None)
    if passes is None:
        passes = _thread_work.passes = {}
        _thread_work.buf = np.empty(0)
    key = (grid.n_lat, grid.n_lon, lmax, n_fields, lead)
    p = passes.get(key)
    if p is None:
        p = _Pass(grid, lmax, n_fields, lead)
        need = p.carve()
        if need > _thread_work.buf.size:
            _thread_work.buf = np.empty(need)
            passes.clear()
        p.carve(_thread_work.buf)
        passes[key] = p
    return p


# ---------------------------------------------------------------------------
# Quadrature and inner products
# ---------------------------------------------------------------------------


def grid_integral(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Integral over the sphere of pointwise values (scalar samples)."""
    return float((2.0 * np.pi / grid.n_lon) * (grid.weight @ values).sum())


@lru_cache(maxsize=None)
def _mode_weights(lmax: int) -> np.ndarray:
    """Parseval weight per m>=0 slot: 1 for m=0, 2 for m>0 (conjugate pair);
    cached and read-only."""
    _, ms = mode_degrees(lmax)
    wm = np.where(ms == 0, 1.0, 2.0)
    wm.setflags(write=False)
    return wm


def inner_h(a: SpectralField, b: SpectralField) -> float | list:
    """H (= L2 of velocity for streams, L2 of values for scalars) pairing;
    of two stacks, a list over their rows, each with its bytes alone."""
    if a.lmax != b.lmax or a.kind != b.kind:
        raise ValueError("fields must share lmax and kind")
    wm = _mode_weights(a.lmax)
    cross = np.real(a.coeffs * np.conj(b.coeffs)) * wm
    if a.kind == "stream":
        cross = cross * basis_eigenvalues(a.lmax)
    sums = cross.sum(axis=-1)
    return float(sums) if sums.ndim == 0 else [float(x) for x in sums]


def norm_h(a: SpectralField) -> float | list:
    h2 = inner_h(a, a)
    if isinstance(h2, list):
        return [math.sqrt(max(x, 0.0)) for x in h2]
    return math.sqrt(max(h2, 0.0))


# ---------------------------------------------------------------------------
# Field constructors for tests and experiments
# ---------------------------------------------------------------------------


def unit_stream_mode(lmax: int, l: int, m: int = 0) -> SpectralField:
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
    c[mode_index(l, m)] = amp
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
