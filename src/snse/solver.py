"""Time integration of the decomposed dynamics u = v + z.

The noise enters only through the linear convolution z (see ou); v obeys
the shifted equation

    d v/dt + (nu A + C) v = N(v, z),   N(v, z) = -B(v+z) + alpha z + f,

whose diagonal linear part is integrated exactly (integrating factor) and
whose nonlinearity is stepped explicitly: forward Euler, a Heun
predictor-corrector, or a per-step Picard iteration of the trapezoidal
mild map.  All schemes consume the identical counter-keyed increment
stream for a given seed, so cross-scheme and cross-resolution runs are
noise-coupled.

The z lane runs ahead of v: z_{k+1} comes from ou_step alone, so the force
F(z_{k+1}) = -B(z_{k+1}) + alpha z_{k+1} + f that the ledger row of the next
state needs is known before the corrector of v starts, and |u_k|_L4 is
read by that row only.  With a helper thread (run's lanes >= 2 at lmax >=
_LANE_MIN_LMAX) the helper computes each while the calling thread runs the
corrector or evaluates N(v_k, z_k); at one lane the same calls run on the
calling thread when their value is needed.  Each value comes from the same
function on the same inputs, so the bytes do not depend on the lane count.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import EnergyLedger, l4_norm, norms
from .harmonics import ParameterError, SpectralField, zero_field
from .noise import NoiseSpec, check_summability
from .operators import OperatorContext, nonlinear_B
from .ou import OUState, decay_rates, make_ou_state, ou_step

__all__ = [
    "SCHEMES",
    "SolverConfig",
    "SimState",
    "SimResult",
    "StepFailure",
    "BlowUpError",
    "ContractionError",
    "effective_force",
    "step_imex",
    "step_picard",
    "run",
    "recombine",
]

SCHEMES = ("imex_euler", "imex_heun", "picard")

# the band limit from which run() starts a helper thread: below it the
# hand-off costs about what B(z) and |u|_L4 save (CHANGES.md has the
# crossover measurement)
_LANE_MIN_LMAX = 48

DIAGNOSTIC_COLUMNS = ("t", "norm_H", "norm_V", "norm_DA", "norm_L4_u",
                      "int_V2", "int_bvvz", "int_Fv")


class StepFailure(RuntimeError):
    """A step could not be completed.

    t is the time the step was to reach, state the last good SimState and
    result the partial SimResult when raised by run(); each subclass names
    its failure in reports by status.
    """

    def __init__(self, message: str, t: float, state=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.result = None


class BlowUpError(StepFailure):
    """Coefficients left the representable range during a step."""

    status = "BLOW-UP"

    def __init__(self, t: float, state=None):
        super().__init__(f"solution blew up at t = {t:.6g}: non-finite "
                         "coefficients", t, state)


class ContractionError(StepFailure):
    """The Picard iteration of a step did not contract."""

    status = "NO CONTRACTION"


@dataclass
class SolverConfig:
    """Time scheme and data of a run; the model (lmax, nu, omega, alpha,
    spectrum) is the OperatorContext's.  f and v0 are stream-function
    fields (divergence-free by representation); f is constant in time."""

    dt: float
    t_end: float
    scheme: str = "imex_heun"
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    f: SpectralField | None = None
    v0: SpectralField | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt", f"dt = {self.dt:g} must be positive")
        if not self.t_end > 0:
            raise ParameterError("t_end", f"t_end = {self.t_end:g} must be positive")
        if not self.t_end >= self.dt:
            raise ParameterError("t_end", f"t_end = {self.t_end!r} must be "
                                 f">= dt = {self.dt!r}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps)
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ParameterError("t_end", f"t_end = {self.t_end:g} is not an "
                                 f"integer multiple of dt = {self.dt:g}")
        if self.scheme not in SCHEMES:
            raise ParameterError("scheme", f"scheme must be one of "
                                 f"{', '.join(SCHEMES)}, got {self.scheme!r}")
        if not self.picard_tol > 0:
            raise ParameterError("picard_tol", "picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ParameterError("picard_max_iter", "picard_max_iter must be >= 1")
        for name in ("v0", "f"):
            fld = getattr(self, name)
            if fld is None:
                continue
            if fld.kind != "stream":
                raise ParameterError(name, f"{name} must be a stream-function field")
            if not np.all(np.isfinite(fld.coeffs)):
                raise ParameterError(name, f"{name} has non-finite coefficients")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class SimState:
    """State at time t.  N holds N(v, z) once run() has evaluated it for the
    ledger row; the step from this state then reads it instead of
    evaluating it again.  F holds the force F(z) once the step that made
    the state has formed it; the ledger row reads it."""

    t: float
    v: SpectralField
    ou: OUState
    ledger: EnergyLedger
    N: np.ndarray | None = None
    F: SpectralField | None = None


def recombine(state: SimState) -> SpectralField:
    """u = v + z (coefficients add mode-wise)."""
    return SpectralField(state.v.lmax, state.v.coeffs + state.ou.z.coeffs, "stream")


def effective_force(z: SpectralField, f: SpectralField | None,
                    ctx: OperatorContext) -> SpectralField:
    """F = N(0, z) = -B(z) + alpha z + f, the force seen by the shifted
    equation."""
    return SpectralField(z.lmax, _nonlinear_rhs(0.0, z, f, ctx), "stream")


def _nonlinear_rhs(v_coeffs: np.ndarray | float, z: SpectralField,
                   f: SpectralField | None, ctx: OperatorContext) -> np.ndarray:
    """N(v, z) = -B(v+z) + alpha z + f on raw coefficients; B(0) = 0 is
    not evaluated."""
    u = v_coeffs + z.coeffs
    out = ctx.alpha * z.coeffs
    if u.any():
        out = -nonlinear_B(SpectralField(z.lmax, u, "stream"), ctx).coeffs + out
    if f is not None:
        out = out + f.coeffs
    return out


def _v_decay_factor(ctx: OperatorContext, dt: float) -> np.ndarray:
    # exact semigroup of the diagonal part nu A + C (alpha acts on z only)
    return np.exp(-dt * (ctx.nu * ctx.lam_stokes + 1j * ctx.coriolis_diag))


def _require_finite(coeffs: np.ndarray, t: float, state: SimState) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise BlowUpError(t, state=state)


def _start(helper, fn, *args):
    """The join of fn(*args): a call that returns its value.  With a helper
    executor fn starts there now, under this thread's numpy errstate (a pool
    thread does not inherit it); without one the join calls fn itself."""
    if helper is None:
        return functools.partial(fn, *args)
    err = np.geterr()

    def task():
        with np.errstate(**err):
            return fn(*args)
    return helper.submit(task).result


def step_imex(state: SimState, cfg: SolverConfig, spec: NoiseSpec, *,
              ctx: OperatorContext, helper=None) -> SimState:
    """One step of cfg.scheme: z by ou_step, then v by integrating-factor
    Euler, Heun, or the fixed point of the trapezoidal mild map iterated
    from the Euler predictor (picard).  A helper executor, if given, forms
    F(z) of the new state meanwhile."""
    dt = cfg.dt
    E = _v_decay_factor(ctx, dt)
    v_n, N_n = state.v.coeffs, state.N
    if N_n is None:
        N_n = _nonlinear_rhs(v_n, state.ou.z, cfg.f, ctx)

    ou_next = ou_step(state.ou, dt, spec)
    z_next = ou_next.z
    _require_finite(z_next.coeffs, state.t + dt, state)
    # z_next does not depend on v: its force is formed beside the corrector.
    # A failed corrector leaves it unread, as one lane never computes it
    F_next = _start(helper, effective_force, z_next, cfg.f, ctx)

    if cfg.scheme == "imex_euler":
        v_next = E * (v_n + dt * N_n)
    else:
        pred = E * (v_n + dt * N_n)
        base = E * v_n + 0.5 * dt * E * N_n
        if cfg.scheme == "imex_heun":
            v_next = base + 0.5 * dt * _nonlinear_rhs(pred, z_next, cfg.f, ctx)
        else:
            w = pred
            for _ in range(cfg.picard_max_iter):
                w_new = base + 0.5 * dt * _nonlinear_rhs(w, z_next, cfg.f, ctx)
                if not np.all(np.isfinite(w_new)):
                    raise BlowUpError(state.t + dt, state=state)
                dw = SpectralField(ctx.lmax, w_new - w, "stream")
                if norms(dw, ctx)["V"] < cfg.picard_tol:
                    w = w_new
                    break
                w = w_new
            else:
                raise ContractionError(
                    f"Picard iteration did not contract within "
                    f"{cfg.picard_max_iter} iterations in the step to "
                    f"t = {state.t + dt:.6g}; reduce dt", state.t + dt, state)
            v_next = w
    _require_finite(v_next, state.t + dt, state)
    return SimState(t=state.t + dt, v=SpectralField(ctx.lmax, v_next, "stream"),
                    ou=ou_next, ledger=state.ledger, F=F_next())


# the same stepper under the name run() gives the picard scheme, so that a
# tracer wrapping each name counts the steps of each scheme
step_picard = step_imex


@dataclass
class SimResult:
    """Trajectory handle: final state, per-step ledger, optional snapshots."""

    ctx: OperatorContext
    state: SimState
    snapshots: list = field(default_factory=list)

    @property
    def ledger(self) -> EnergyLedger:
        return self.state.ledger

    def diagnostic_table(self) -> np.ndarray:
        """Columns: t, |v|_H, |v|_V, |Av|_H, |v+z|_L4 and the running
        integrals of |v|_V^2, b(v,v,z), (F,v)."""
        led = self.ledger
        cols = [led.series("t"),
                np.sqrt(led.series("v_h2")),
                np.sqrt(led.series("v_v2")),
                np.sqrt(led.series("av2")),
                led.series("u_l4"),
                led.cumulative("v_v2"),
                led.cumulative("b_vvz"),
                led.cumulative("f_v")]
        return np.column_stack(cols)


def _initial_ou(ctx: OperatorContext, spec: NoiseSpec) -> OUState:
    if np.any(spec.sigma_per_mode(ctx.lmax) != 0):
        return make_ou_state(ctx)
    # undriven runs skip the Re kappa > 0 gate (nothing to convolve); the
    # curvature-shifted spectrum with alpha = 0 is then still integrable
    return OUState(z=zero_field(ctx.lmax), kappa=decay_rates(ctx))


def _record(state: SimState, cfg: SolverConfig, ctx: OperatorContext,
            helper=None) -> None:
    """Evaluate N(v, z) of the state, kept for the step from it, and append
    the state's ledger row; a helper executor, if given, forms |u|_L4
    meanwhile."""
    z = state.ou.z
    # N and |u|^4 of a state near blow-up can overflow; the row rejects
    # them silently
    with np.errstate(over="ignore", invalid="ignore"):
        u_l4 = _start(helper, l4_norm, recombine(state))
        state.N = _nonlinear_rhs(state.v.coeffs, z, cfg.f, ctx)
        u_l4 = u_l4()
    if state.F is None:                 # the initial state: no step formed it
        state.F = effective_force(z, cfg.f, ctx)
    state.ledger.record_state(state.t, state.v, z,
                              SpectralField(ctx.lmax, state.N, "stream"),
                              state.F, ctx, u_l4=u_l4)


def run(cfg: SolverConfig, spec: NoiseSpec, *, ctx: OperatorContext,
        snapshot_every: int = 0, lanes: int = 1) -> SimResult:
    """Integrate to t_end on the model of ctx, recording the energy ledger
    at every step.

    snapshot_every > 0 stores (t, v, z) coefficient snapshots every that
    many steps (plus the endpoint).  A failed step (blow-up, or a Picard
    iteration that does not contract) aborts with the partial result and
    last good state attached to the raised error.

    lanes is the number of CPUs this path may use.  From 2 lanes at lmax >=
    _LANE_MIN_LMAX one helper thread forms F(z) and |u|_L4 beside the
    calling thread (module docstring); it ends before run returns or
    raises, and the result is the same at any lane count.
    """
    for name, fld in (("v0", cfg.v0), ("f", cfg.f)):
        if fld is not None and fld.lmax != ctx.lmax:
            raise ValueError(f"{name} lmax {fld.lmax} != operator lmax {ctx.lmax}")
    if not check_summability(spec)["converged"]:
        raise ValueError("noise spectrum fails the summability check at "
                         f"delta = {spec.delta:g}")
    v0 = cfg.v0.copy() if cfg.v0 is not None else zero_field(ctx.lmax)
    state = SimState(t=0.0, v=v0, ou=_initial_ou(ctx, spec),
                     ledger=EnergyLedger())
    result = SimResult(ctx=ctx, state=state)

    def snap(s: SimState):
        result.snapshots.append((s.t, s.v.coeffs.copy(), s.ou.z.coeffs.copy()))

    helper = None
    if lanes >= 2 and ctx.lmax >= _LANE_MIN_LMAX:
        # imported here: one lane never needs it, and it slows start-up
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(max_workers=1)
    n_steps = cfg.n_steps
    stepper = step_picard if cfg.scheme == "picard" else step_imex
    prev = None                         # the last recorded state
    with helper or contextlib.nullcontext():
        for k in range(n_steps + 1):
            try:
                if k > 0:
                    state = stepper(state, cfg, spec, ctx=ctx, helper=helper)
                    state.t = k * cfg.dt  # keep the grid free of accumulated rounding
                try:
                    _record(state, cfg, ctx, helper)
                except ValueError as err:
                    # coefficients can stay representable while a recorded
                    # quantity (N, |u|^4, squared norms) overflows: same policy
                    raise BlowUpError(state.t, state=prev) from err
            except StepFailure as err:
                err.result = result
                if snapshot_every > 0 and err.state is not None:
                    snap(err.state)
                raise
            if snapshot_every > 0 and (k % snapshot_every == 0 or k == n_steps):
                snap(state)
            result.state = prev = state
    return result
