"""Spectral and grid realizations of the dissipative, rotational and
convective operators acting on divergence-free fields on the unit sphere.

Everything is expressed on stream-function coefficients.  The dissipative
operator is diagonal with eigenvalues lam_l; two spectra are exposed:

* ``paper``         lam_l = l(l+1)            (default)
* ``ricci_shifted`` lam_l = l(l+1) - 2        (curvature-corrected; l=1 is
                                               then a zero mode)

The shift is -2 Ric: on the unit sphere the Ricci tensor is the metric, so
on orthonormal-frame components (our storage) Ric u = u.  The switch
affects only those eigenvalues.  Basis-normalization facts —
|Curl Y_{l,m}|^2 = l(l+1), vorticity zeta_{l,m} = l(l+1) psi_{l,m}, the
Parseval weights, and the rotation diagonal's denominator — always use
l(l+1), which is a property of the harmonics themselves.

Rotation: projecting 2*Omega*cos(theta) (xhat x u) onto divergence-free
fields, with u = Curl psi so that xhat x u = grad psi, gives per-mode
multiplication of psi_{l,m} by -2i*Omega*m/(l(l+1)) — purely imaginary,
hence skew-adjoint and energy-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    ParameterError,
    QuadratureGrid,
    SpectralField,
    _thread_pass,
    basis_eigenvalues,
    gauss_legendre_grid,
    gradient_synthesis,
    grid_integral,
    min_grid,
    mode_degrees,
    n_modes,
    scalar_synthesis,
    smooth_length,
    vector_synthesis,
)

__all__ = [
    "OperatorContext",
    "product_grid",
    "stokes_apply",
    "coriolis_apply",
    "trilinear_b",
    "nonlinear_B",
]

SPECTRA = ("paper", "ricci_shifted")


def product_grid(lmax: int) -> QuadratureGrid:
    """Grid that dealiases quadratic products at band limit lmax: the 2/3
    rule's n_lat, and the smallest 5-smooth n_lon at or above its bound."""
    n_lat, n_lon = min_grid(lmax, dealias=True)
    return gauss_legendre_grid(n_lat, smooth_length(n_lon))


@dataclass
class OperatorContext:
    """Shared immutable context: band limit, physical constants, product grid.

    The grid must resolve lmax, and with dealias=True obey the 2/3 rule: the
    one grid check, as the operators take fields at lmax only.
    alpha >= 0 is the damping shift of the convolution z only (see ou).
    """

    lmax: int
    nu: float = 1.0
    omega: float = 0.0
    grid: QuadratureGrid | None = None
    dealias: bool = True
    spectrum: str = "paper"
    alpha: float = 0.0
    lam_stokes: np.ndarray = field(init=False, repr=False)
    coriolis_diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.lmax < 1:
            raise ParameterError("lmax", f"lmax = {self.lmax} must be >= 1")
        if not self.nu > 0:
            raise ParameterError("nu", f"nu = {self.nu:g} must be positive")
        if self.spectrum not in SPECTRA:
            raise ParameterError("spectrum", f"spectrum must be one of "
                                 f"{', '.join(SPECTRA)}, got {self.spectrum!r}")
        if self.grid is None:
            self.grid = product_grid(self.lmax)
        n_lat, n_lon = min_grid(self.lmax, self.dealias)
        task = ("dealias quadratic products" if self.dealias
                else "resolve the band limit")
        for name, least in (("n_lon", n_lon), ("n_lat", n_lat)):
            have = getattr(self.grid, name)
            if have < least:
                raise ParameterError(name, f"{name} = {have} cannot {task} at "
                                     f"lmax = {self.lmax} (needs ≥ {least})")
        if not self.alpha >= 0:
            raise ParameterError("alpha", f"alpha = {self.alpha:g} must be >= 0")
        ls, ms = mode_degrees(self.lmax)
        self.lam_stokes = self.stokes_eigenvalues(ls)
        lam = basis_eigenvalues(self.lmax)
        diag = np.zeros(n_modes(self.lmax))
        diag[1:] = -2.0 * self.omega * ms[1:] / lam[1:]
        # rotation acts as multiplication by 1j * coriolis_diag
        self.coriolis_diag = diag

    def stokes_eigenvalues(self, l) -> np.ndarray:
        """lam_l of the spectrum at degree(s) l, also past lmax; 0 at l = 0."""
        l = np.asarray(l, dtype=np.float64)
        lam = l * (l + 1.0)
        return lam if self.spectrum == "paper" else np.where(l >= 1, lam - 2.0, 0.0)


def stokes_apply(u: SpectralField, ctx: OperatorContext) -> SpectralField:
    """Dissipative operator A: multiply mode (l,m) by the context's lam_l."""
    return SpectralField(u.lmax, u.coeffs * ctx.lam_stokes, u.kind)


def coriolis_apply(u: SpectralField, ctx: OperatorContext) -> SpectralField:
    """Projected rotation term on stream coefficients: the diagonal
    multiplier i * (-2 Omega m / (l(l+1)))."""
    return SpectralField(u.lmax, u.coeffs * (1j * ctx.coriolis_diag), u.kind)


# ---------------------------------------------------------------------------
# Convective terms.  Two independent routes:
#
# trilinear_b:  direct quadrature of (nabla_v w) . z with the covariant
#   derivative assembled from spectral first derivatives on the grid;
# nonlinear_B:  vorticity (Jacobian) form — analyze u . grad(zeta) and divide
#   by l(l+1) — the production path for B(u) = projection of (nabla_u u).
#
# Their agreement, (B(u), w)_H == b(u, u, w), is a tested contract, not an
# implementation shortcut.
# ---------------------------------------------------------------------------


def _covariant_derivative(v: SpectralField, w: SpectralField, grid: QuadratureGrid):
    """Grid values of nabla_v w for stream fields v, w.

    With chi = stream(w): (W_theta, W_phi) = (grad chi)_phi, -(grad chi)_theta,
    and all four first derivatives of W reduce to syntheses of chi:

      dW_theta/dtheta = (d2chi/dth dphi)/sin - cot * W_theta
      dW_theta/dphi   = (d2chi/dphi2)/sin
      dW_phi/dtheta   = synth(l(l+1) chi) + cot * (dchi/dtheta)
                        + (d2chi/dphi2)/sin^2     [via the Laplacian identity]
      dW_phi/dphi     = -(d2chi/dth dphi)

    The frame connection adds -cot * V_phi * W_phi to the theta component
    and +cot * V_phi * W_theta to the phi component.
    """
    chi = SpectralField(w.lmax, w.coeffs, "scalar")
    _, ms = mode_degrees(w.lmax)
    lam = basis_eigenvalues(w.lmax)

    V = vector_synthesis(v, grid).values
    G = gradient_synthesis(chi, grid).values          # (dchi/dth, dchi/dphi / sin)
    Wt, Wp = G[1], -G[0]
    dchi_dphi = SpectralField(w.lmax, 1j * ms * chi.coeffs, "scalar")
    A2 = gradient_synthesis(dchi_dphi, grid).values   # (d2/dthdphi, d2/dphi2 / sin)
    lap = scalar_synthesis(SpectralField(w.lmax, lam * chi.coeffs, "scalar"), grid).values

    sin = grid.sin_theta[:, None]
    cot = (grid.mu / grid.sin_theta)[:, None]

    dWt_dth = A2[0] / sin - cot * Wt
    dWt_dph_over_sin = A2[1] / sin
    dWp_dth = lap + cot * G[0] + A2[1] / sin
    dWp_dph_over_sin = -A2[0] / sin

    conv_t = V[0] * dWt_dth + V[1] * dWt_dph_over_sin - cot * V[1] * Wp
    conv_p = V[0] * dWp_dth + V[1] * dWp_dph_over_sin + cot * V[1] * Wt
    return np.stack([conv_t, conv_p])


def trilinear_b(v: SpectralField, w: SpectralField, z: SpectralField,
                ctx: OperatorContext) -> float:
    """b(v, w, z) = integral of (nabla_v w) . z over the sphere."""
    if not (v.lmax == w.lmax == z.lmax == ctx.lmax):
        raise ValueError(f"fields must have the operator lmax {ctx.lmax}")
    grid = ctx.grid
    conv = _covariant_derivative(v, w, grid)
    Z = vector_synthesis(z, grid).values
    return grid_integral(grid, conv[0] * Z[0] + conv[1] * Z[1])


def nonlinear_B(u: SpectralField, ctx: OperatorContext) -> SpectralField:
    """Stream coefficients of the projected self-advection P(nabla_u u).

    Pseudo-spectral vorticity route: B(u)_psi[l,m] = (u . grad zeta)_{l,m} / (l(l+1))
    with the advective product formed on the (dealiased) grid: one
    synthesis of the six derivative columns of psi and zeta = l(l+1) psi,
    one irfft, the product in place, one rfft and one analysis.  A stack
    of fields makes one pass over the stack, with each field's bytes.
    """
    if u.lmax != ctx.lmax:
        raise ValueError(f"field lmax {u.lmax} != operator lmax {ctx.lmax}")
    p = _thread_pass(ctx.grid, u.lmax, 2, u.coeffs.shape[:-1])
    # rows d(psi)/dphi / sin = u_theta, d(zeta)/dphi / sin, d(psi)/dtheta =
    # -u_phi, d(zeta)/dtheta: u . grad zeta, in place in the first row
    G = p.synthesize(u.coeffs)
    G[..., 0, :, :] *= G[..., 3, :, :]
    G[..., 2, :, :] *= G[..., 1, :, :]
    G[..., 0, :, :] -= G[..., 2, :, :]
    out = p.analyze(G[..., 0, :, :])
    out[..., 1:] /= basis_eigenvalues(u.lmax)[1:]
    return SpectralField(u.lmax, out, "stream")
