"""Independent routes the tests compare the package against, and one-path
entries to the stacked stepper.  No mode runs them: pointwise harmonics,
the spectral vorticity, the rotation term formed on the grid, increment
draws from one generator (its clocks, then its Gaussians) and a batched OU
recursion over them, and a single path through solver.run,
solver.step_imex and ou.ou_step, whose failure raises."""

import numpy as np

from snse import harmonics as sh
from snse import ou, solver
from snse.noise import (PURPOSE_MC, SubstepStreams, _pack_gaussians,
                        _positive_stable_batch, substream)


def eval_ylm(l, m, theta, phi):
    """Orthonormal spherical harmonic Y_{l,m}(theta, phi), any |m| <= l,
    from the package's Legendre recurrence at arbitrary points.

    Condon-Shortley phase included; Y_{l,-m} = (-1)^m conj(Y_{l,m}).
    """
    if abs(m) > l:
        raise ValueError(f"|m|={abs(m)} exceeds l={l}")
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    ma = abs(m)
    P = sh._legendre_P(l, np.cos(theta), np.sin(theta))
    val = P[ma, ..., l] * np.exp(1j * ma * phi)
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    return complex(val) if val.ndim == 0 else val


def curl_scalar(u):
    """Scalar vorticity of u = Curl psi: zeta_{l,m} = l(l+1) psi_{l,m}, the
    fact that nonlinear_B's vorticity columns rest on."""
    return sh.SpectralField(u.lmax, u.coeffs * sh.basis_eigenvalues(u.lmax),
                            "scalar")


def coriolis_grid(u, ctx):
    """Projected rotation term by the grid route: synthesize u, form
    2 Omega cos(theta) (xhat x u) pointwise, project back (Leray)."""
    g = ctx.grid
    w = sh.vector_synthesis(u, g).values
    # xhat x w: (w_theta, w_phi) -> (-w_phi, w_theta)
    rot = np.stack([-w[1], w[0]]) * (2.0 * ctx.omega * g.mu)[None, :, None]
    return sh.vector_analysis(sh.GridField(g, rot), u.lmax)


def gaussian_mode_increments(rng, dX, lmax):
    """N(0, dX) coordinate increments drawn from one generator: the
    (n_modes, 2) standard-normal pairs of each leading index of dX in
    turn, in the complex layout of noise.levy_increment_block."""
    dX = np.asarray(dX, dtype=np.float64)
    xi = rng.standard_normal(dX.shape + (sh.n_modes(lmax), 2))
    return _pack_gaussians(xi, dX, lmax)


def levy_increment_batch(spec, dt, rng, n_paths, lmax):
    """dL of n_paths independent increment blocks, shape (n_paths,
    n_modes): every clock first, then every Gaussian, the draws of
    noise.levy_increment_block made for a whole batch at once."""
    dX = _positive_stable_batch(spec.beta / 2.0, dt, rng, n_paths)
    return gaussian_mode_increments(rng, dX, lmax)


def ou_endpoint_ensemble(spec, ctx, t, n_paths, *, n_substeps=None, rng=None):
    """Direct batched simulation of n_paths independent copies of z starting
    from 0; returns stream coefficients of shape (n_paths, n_modes).

    Rotation-free (the moment theory ignores the skew part, which cannot
    change coefficient magnitudes).
    """
    n = int(n_substeps) if n_substeps is not None else spec.n_substeps
    if t <= 0 or n < 1:
        raise ValueError("need t > 0 and n_substeps >= 1")
    delta = t / n
    g = ou._mode_gain(spec, ctx.lmax)
    decay = np.exp(-ou.make_ou_state(ctx, spec).kappa.real * delta)
    y = np.zeros((n_paths, sh.n_modes(ctx.lmax)), dtype=np.complex128)
    for j in range(n):
        gen = rng if rng is not None else substream(spec.seed, PURPOSE_MC, 0, j)
        dL = levy_increment_batch(spec, delta, gen, n_paths, ctx.lmax)
        y = decay * (y + g * dL)
    return y


def _stack(field):
    """A field as a stack of one."""
    return sh.SpectralField(field.lmax, field.coeffs[None], field.kind)


def run_path(cfg, spec, *, ctx, snapshot_every=0, lanes=1):
    """solver.run of the one path that draws with spec.seed; its failed
    step raises the StepFailure, with the partial SimResult attached."""
    result, = solver.run(cfg, spec, [spec.seed], ctx=ctx,
                         snapshot_every=snapshot_every, lanes=lanes)
    if result.failure is not None:
        raise result.failure
    return result


def ou_step_path(state, dt, spec):
    """ou.ou_step of one path, an OUState of one z, drawing with
    spec.seed."""
    stack = ou.OUState(_stack(state.z), state.kappa, state.substep_index)
    out = ou.ou_step(stack, dt, spec, SubstepStreams([spec.seed]),
                     ou.substep_factors(state, dt, spec))
    return ou.OUState(sh.SpectralField(out.z.lmax, out.z.coeffs[0], "stream"),
                      out.kappa, out.substep_index)


def step_path(state, N, cfg, spec, *, ctx):
    """solver.step_imex of one path, a SimState of one v and z, whose
    N(v, z) is N: the new state and its force F(z).  A Picard iteration
    that stalls raises ContractionError, a non-finite coefficient
    BlowUpError."""
    stack = solver.SimState(state.t, _stack(state.v),
                            ou.OUState(_stack(state.ou.z), state.ou.kappa,
                                       state.ou.substep_index))
    factors = (solver._v_decay_factor(ctx, cfg.dt),
               ou.substep_factors(state.ou, cfg.dt, spec))
    out, F, stalled = solver.step_imex(stack, N[None], cfg, spec,
                                       SubstepStreams([spec.seed]), ctx=ctx,
                                       factors=factors)
    if stalled[0]:
        raise solver.ContractionError(out.t, cfg.picard_max_iter)
    if not all(np.isfinite(c).all() for c in (out.v.coeffs, out.ou.z.coeffs)):
        raise solver.BlowUpError(out.t)
    return (solver._rows(out, 0),
            sh.SpectralField(ctx.lmax, F.coeffs[0], "stream"))
