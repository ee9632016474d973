"""Stochastic convolution of the linearized vorticity flow.

The process z solves dz + (nu A + C + alpha) z dt = G dL with A the Stokes
operator, C rotation, alpha >= 0 a damping shift, and L the subordinated
cylindrical noise from the noise module.  Mode (l, m) of the stream
function evolves independently:

    z_lm(t) = e^{-kappa t} z_lm(0)
              + sigma_l lambda_l^{-1/2} int_0^t e^{-kappa (t-s)} dL_lm(s),

kappa = nu lambda_l^S + alpha + i c_lm.  Stepping applies the deterministic
factor exactly and discretizes the stochastic integral with left-endpoint
substeps, which is adapted and biases the conditional variance low (never
high), so moment-bound comparisons stay conservative.

Moment utilities evaluate the closed-form p-th moment bound

    E|z_t|^p <= c_p (sum_l (2l+1) |sigma_l|^beta
                     (1 - e^{-beta kappa_l t}) / (beta kappa_l))^{p/beta}

with c_p = m_p Gamma(1-p/beta) / Gamma(1-p/2) and m_p the standard-normal
absolute moment; the constant is exact (ratio 1) for a single real
coordinate and the sum is subadditive across coordinates, so it upper
bounds the truncated multi-mode process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (ParameterError, SpectralField, _mode_weights,
                        basis_eigenvalues, mode_degrees, n_modes, zero_field)
from .noise import (
    PURPOSE_MC,
    PURPOSE_SUBSTEP,
    LevyIncrementBlock,
    NoiseSpec,
    _gaussian_mode_increments,
    _positive_stable_batch,
    levy_increment_block,
    substream,
)
from .operators import OperatorContext

__all__ = [
    "OUState",
    "make_ou_state",
    "decay_rates",
    "ou_step",
    "ou_endpoint_ensemble",
    "zlp_constant",
    "zlp_bound",
    "ou_moment_check",
    "sup_norm_growth",
]


@dataclass
class OUState:
    """Per-mode state of the stochastic convolution.

    t: current time; z: stream-function coefficients; alpha: damping shift;
    kappa: per-mode complex decay rates (Re kappa > 0 away from l = 0);
    substep_index: absolute substep counter driving the noise streams.
    """

    t: float
    z: SpectralField
    alpha: float
    kappa: np.ndarray
    substep_index: int = 0


def decay_rates(ctx: OperatorContext, alpha: float) -> np.ndarray:
    """kappa_lm = nu lambda_l + alpha + i c_lm over the mode layout."""
    return ctx.nu * ctx.lam_stokes + float(alpha) + 1j * ctx.coriolis_diag


def make_ou_state(ctx: OperatorContext, alpha: float = 0.0, *,
                  z0: SpectralField | None = None) -> OUState:
    if alpha < 0:
        raise ParameterError("alpha", f"alpha = {alpha:g} must be >= 0")
    kappa = decay_rates(ctx, alpha)
    if np.any(kappa[1:].real <= 0.0):
        raise ParameterError("alpha", "every mode must decay: Re kappa > 0 on "
                             f"l >= 1 (spectrum = {ctx.spectrum} needs alpha > 0)")
    if z0 is None:
        z0 = zero_field(ctx.lmax, "stream")
    if z0.kind != "stream" or z0.lmax != ctx.lmax:
        raise ValueError("z0 must be a stream field on the context band limit")
    return OUState(t=0.0, z=z0.copy(), alpha=float(alpha), kappa=kappa)


def _mode_gain(spec: NoiseSpec) -> np.ndarray:
    """Stream-coefficient gain per mode: a unit-H-norm mode carries stream
    amplitude lambda^{-1/2}, so noise amplitude sigma_l enters the stream
    coefficients scaled that way."""
    lam = basis_eigenvalues(spec.lmax)
    g = np.zeros(n_modes(spec.lmax))
    g[1:] = spec.sigma_per_mode()[1:] / np.sqrt(lam[1:])
    return g


def ou_step(state: OUState, dt: float, spec: NoiseSpec,
            rng: np.random.Generator | None = None, *,
            blocks: list[LevyIncrementBlock] | None = None) -> OUState:
    """Advance the convolution by dt using spec.n_substeps noise substeps.

    Noise is drawn from counter-based streams keyed by the absolute substep
    index unless an explicit rng or a pre-drawn block list is supplied.
    Passing blocks allows coupled-refinement studies: the same noise at two
    substep resolutions.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if spec.lmax != state.z.lmax:
        raise ValueError("noise band limit must match the state band limit")
    n = spec.n_substeps
    delta = dt / n
    if blocks is not None:
        if len(blocks) != n:
            raise ValueError("need exactly n_substeps blocks")
        for blk in blocks:
            if abs(blk.dt - delta) > 1e-9 * delta:
                raise ValueError("block duration does not match the substep")
    g = _mode_gain(spec)
    decay = np.exp(-state.kappa * delta)
    y = state.z.coeffs.copy()
    for j in range(n):
        if blocks is not None:
            blk = blocks[j]
        else:
            gen = rng if rng is not None else substream(
                spec.seed, PURPOSE_SUBSTEP, state.substep_index + j)
            blk = levy_increment_block(spec, delta, gen)
        y = decay * (y + g * blk.dL)
    return OUState(t=state.t + dt, z=SpectralField(state.z.lmax, y, "stream"),
                   alpha=state.alpha, kappa=state.kappa,
                   substep_index=state.substep_index + n)


# ---------------------------------------------------------------------------
# Monte-Carlo ensembles
# ---------------------------------------------------------------------------


def ou_endpoint_ensemble(spec: NoiseSpec, alpha: float, t: float, n_paths: int, *,
                         nu: float = 1.0, n_substeps: int | None = None,
                         rng: np.random.Generator | None = None,
                         counter: int = 0) -> np.ndarray:
    """Direct batched simulation of n_paths independent copies of z starting
    from 0; returns stream coefficients of shape (n_paths, n_modes).

    Rotation-free (the moment theory ignores the skew part, which cannot
    change coefficient magnitudes).  Callers sharing a seed should pass
    distinct counters.
    """
    n = int(n_substeps) if n_substeps is not None else spec.n_substeps
    if t <= 0 or n < 1:
        raise ValueError("need t > 0 and n_substeps >= 1")
    delta = t / n
    kappa = nu * basis_eigenvalues(spec.lmax) + alpha
    if np.any(kappa[1:] <= 0):
        raise ValueError("every mode must decay: Re kappa > 0 required on l >= 1")
    g = _mode_gain(spec)
    decay = np.exp(-kappa * delta)
    y = np.zeros((n_paths, n_modes(spec.lmax)), dtype=np.complex128)
    for j in range(n):
        gen = rng if rng is not None else substream(spec.seed, PURPOSE_MC, counter, j)
        if spec.beta == 2.0:
            dX = np.full(n_paths, delta)
        else:
            dX = _positive_stable_batch(spec.beta / 2.0, delta, gen, n_paths)
        dL = _gaussian_mode_increments(gen, dX, spec.lmax)
        y = decay * (y + g * dL)
    return y


def h_norm2_batch(coeffs: np.ndarray, lmax: int, weight_exponent: float = 0.0) -> np.ndarray:
    """|z|_H^2 (weight_exponent = 0) or |A^s z|_H^2 over the last axis."""
    lam = basis_eigenvalues(lmax)
    w = _mode_weights(lmax) * lam
    if weight_exponent != 0.0:
        w = w * np.where(lam > 0, lam, 1.0) ** (2.0 * weight_exponent)
    return (np.abs(coeffs) ** 2 * w).sum(axis=-1)


def _conditional_h_norm2_samples(spec: NoiseSpec, alpha: float, t: float,
                                 n_paths: int, *, nu: float = 1.0,
                                 max_kappa_dt: float = 0.05,
                                 rng: np.random.Generator | None = None,
                                 counter: int = 0) -> np.ndarray:
    """Samples of |z_t|_H^2 via the conditional-Gaussian representation.

    Given the subordinator path, each real coordinate of mode (l, m) is
    centered Gaussian with variance sigma_l^2 S_l, where S_l is the
    discounted clock sum S_l = sum_j e^{-2 kappa_l (t - s_j)} dX_j over
    left-endpoint substeps.  Degree l then contributes
    sigma_l^2 S_l chi^2_{2l+1}.  Distributionally identical to the direct
    stepper but needs only one clock recursion per degree, so fine substep
    grids are affordable.
    """
    if t <= 0:
        return np.zeros(n_paths)
    sig_all = spec.sigma_per_mode()
    ls_all, _ = mode_degrees(spec.lmax)
    degs = np.unique(ls_all[sig_all > 0])
    if degs.size == 0:
        return np.zeros(n_paths)
    sig = spec.sigma_rule(degs)
    kap = nu * degs * (degs + 1.0) + alpha
    n = max(1, math.ceil(t * float(kap.max()) / max_kappa_dt))
    delta = t / n
    E2 = np.exp(-2.0 * kap * delta)
    gen = rng if rng is not None else substream(spec.seed, PURPOSE_MC, counter)
    if spec.beta == 2.0:
        # deterministic clock: geometric sum in closed form
        S = np.broadcast_to(delta * E2 * (1.0 - E2**n) / (1.0 - E2),
                            (n_paths, degs.size))
    else:
        S = np.zeros((n_paths, degs.size))
        for _ in range(n):
            dX = _positive_stable_batch(spec.beta / 2.0, delta, gen, n_paths)
            S = E2 * (S + dX[:, None])
    norm2 = np.zeros(n_paths)
    for i, l in enumerate(degs):
        dof = 2 * int(l) + 1
        G = gen.standard_normal((n_paths, dof))
        norm2 += sig[i] ** 2 * S[:, i] * (G**2).sum(axis=1)
    return norm2


# ---------------------------------------------------------------------------
# Closed-form moment bounds
# ---------------------------------------------------------------------------


def zlp_constant(p: float, beta: float) -> float:
    """Moment constant c_p: exact for one real coordinate.

    c_p = m_p Gamma(1 - p/beta) / Gamma(1 - p/2) with m_p = E|N(0,1)|^p;
    for beta = 2 this reduces to m_p (and to exactly 1 at p = 2).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    m_p = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    if beta == 2.0:
        return m_p
    if p >= beta:
        raise ValueError("p < beta required: higher moments are infinite")
    return m_p * math.gamma(1.0 - p / beta) / math.gamma(1.0 - p / 2.0)


def zlp_bound(t: float, p: float, spec: NoiseSpec, alpha: float, lmax_trunc: int, *,
              nu: float = 1.0, include_multiplicity: bool = True,
              l_star: int = 10**5) -> float:
    """The displayed moment bound (without the constant c_p):

        (sum_l [2l+1] |sigma_l|^beta (1-e^{-beta kappa_l t})/(beta kappa_l))^{p/beta}

    summed explicitly to lmax_trunc, with the remainder estimated
    numerically to l_star plus an integral-test extrapolation.  Returns inf
    when the tail diverges.
    """
    beta = spec.beta
    if beta < 2.0 and not (0.0 < p < beta):
        raise ValueError("p < beta required: higher moments are infinite")
    if beta == 2.0 and p <= 0:
        raise ValueError("p must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    rule = spec.sigma_rule

    def term(l: np.ndarray) -> np.ndarray:
        bk = beta * (nu * l * (l + 1.0) + alpha)
        out = np.abs(rule(l)) ** beta * (-np.expm1(-bk * t)) / bk
        if include_multiplicity:
            out = out * (2.0 * l + 1.0)
        return out

    head = float(term(np.arange(1, lmax_trunc + 1, dtype=np.float64)).sum())
    tail = 0.0
    for lo in range(lmax_trunc + 1, l_star + 1, 10**5):
        hi = min(lo + 10**5 - 1, l_star)
        tail += float(term(np.arange(lo, hi + 1, dtype=np.float64)).sum())
    x0, x1 = float(l_star), float(l_star) * 1.01
    t0, t1 = float(term(np.array([x0]))[0]), float(term(np.array([x1]))[0])
    if t0 > 0.0:
        slope = math.log(t1 / t0) / math.log(x1 / x0)
        if slope >= -1.0 - 1e-9:
            return math.inf
        tail += t0 * x0 / (-slope - 1.0)
    return (head + tail) ** (p / beta)


def ou_moment_check(spec: NoiseSpec, alpha: float, p: float, t: float,
                    n_paths: int, rng: np.random.Generator | None = None, *,
                    nu: float = 1.0, max_kappa_dt: float = 0.05,
                    mc_slack: float = 0.05, counter: int = 0) -> dict:
    """Monte-Carlo E|z_t|^p against c_p * bound.

    passed allows mc_slack of relative headroom because the Gaussian case
    saturates the bound exactly, where sampling noise lands above it half
    the time.
    """
    if spec.beta < 2.0 and not (0.0 < p < spec.beta):
        raise ValueError("p < beta required: higher moments are infinite")
    norm2 = _conditional_h_norm2_samples(spec, alpha, t, n_paths, nu=nu,
                                         max_kappa_dt=max_kappa_dt, rng=rng,
                                         counter=counter)
    empirical = float(np.mean(norm2 ** (p / 2.0)))
    bound = zlp_bound(t, p, spec, alpha, spec.lmax, nu=nu)
    c_tilde = zlp_constant(p, spec.beta)
    ceiling = c_tilde * bound
    if ceiling > 0:
        ratio = empirical / ceiling
    else:
        ratio = 0.0 if empirical == 0.0 else math.inf
    return {"empirical": empirical, "bound": bound, "ratio": ratio,
            "c_tilde": c_tilde, "passed": bool(ratio <= 1.0 + mc_slack)}


def sup_norm_growth(spec: NoiseSpec, delta: float, p: float, T_list, n_paths: int,
                    rng: np.random.Generator | None = None, *, nu: float = 1.0,
                    alpha: float = 0.0, n_time: int = 64) -> dict:
    """Growth of E sup_{t<=T} |A^delta z_t|^p across horizons T.

    Returns the log-log slope over T_list together with the per-T
    estimates; slope is None when every estimate vanishes.
    """
    if spec.beta < 2.0 and not (0.0 < p < spec.beta):
        raise ValueError("p < beta required: higher moments are infinite")
    lam = basis_eigenvalues(spec.lmax)
    w = _mode_weights(spec.lmax) * lam * np.where(lam > 0, lam, 1.0) ** (2.0 * delta)
    g = _mode_gain(spec)
    kappa = nu * lam + alpha
    estimates = []
    for i, T in enumerate(T_list):
        dt = float(T) / n_time
        decay = np.exp(-kappa * dt)
        gen = rng if rng is not None else substream(spec.seed, PURPOSE_MC, 10_000 + i)
        y = np.zeros((n_paths, lam.size), dtype=np.complex128)
        run_max = np.zeros(n_paths)
        for _ in range(n_time):
            if spec.beta == 2.0:
                dX = np.full(n_paths, dt)
            else:
                dX = _positive_stable_batch(spec.beta / 2.0, dt, gen, n_paths)
            dL = _gaussian_mode_increments(gen, dX, spec.lmax)
            y = decay * (y + g * dL)
            np.maximum(run_max, (np.abs(y) ** 2 * w).sum(axis=-1), out=run_max)
        estimates.append((float(T), float(np.mean(run_max ** (p / 2.0)))))
    vals = np.array([e[1] for e in estimates])
    if np.any(vals <= 0) or len(estimates) < 2:
        return {"slope": None, "estimates": estimates}
    slope = float(np.polyfit(np.log([e[0] for e in estimates]), np.log(vals), 1)[0])
    return {"slope": slope, "estimates": estimates}
