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
from .ou import OUState, make_ou_state, ou_step

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

    t is the time the step was to reach, and result the partial SimResult,
    whose state is the last good one, when raised by run(); each subclass
    names its failure in reports by status.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t
        self.result = None


class BlowUpError(StepFailure):
    """Coefficients left the representable range during a step."""

    status = "BLOW-UP"

    def __init__(self, t: float):
        super().__init__(f"solution blew up at t = {t:.6g}: non-finite "
                         "coefficients", t)


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
    """State at time t: v, and z with its clock in the OU state."""

    t: float
    v: SpectralField
    ou: OUState


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


def _require_finite(coeffs: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise BlowUpError(t)


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


def step_imex(state: SimState, N: np.ndarray, cfg: SolverConfig,
              spec: NoiseSpec, *, ctx: OperatorContext,
              helper=None) -> tuple[SimState, SpectralField]:
    """One step of cfg.scheme from state, whose N(v, z) is N: z by ou_step,
    then v by integrating-factor Euler, Heun, or the fixed point of the
    trapezoidal mild map iterated from the Euler predictor (picard).
    Returns the new state and its force F(z), which a helper executor, if
    given, forms meanwhile."""
    dt, t = cfg.dt, state.t + cfg.dt
    E = _v_decay_factor(ctx, dt)
    v_n = state.v.coeffs

    ou_next = ou_step(state.ou, dt, spec)
    z_next = ou_next.z
    _require_finite(z_next.coeffs, t)
    # z_next does not depend on v: its force is formed beside the corrector.
    # A failed corrector leaves it unread, as one lane never computes it
    F_next = _start(helper, effective_force, z_next, cfg.f, ctx)

    if cfg.scheme == "imex_euler":
        v_next = E * (v_n + dt * N)
    else:
        pred = E * (v_n + dt * N)
        base = E * v_n + 0.5 * dt * E * N
        if cfg.scheme == "imex_heun":
            v_next = base + 0.5 * dt * _nonlinear_rhs(pred, z_next, cfg.f, ctx)
        else:
            w = pred
            for _ in range(cfg.picard_max_iter):
                w_new = base + 0.5 * dt * _nonlinear_rhs(w, z_next, cfg.f, ctx)
                if not np.all(np.isfinite(w_new)):
                    raise BlowUpError(t)
                dw = SpectralField(ctx.lmax, w_new - w, "stream")
                if norms(dw, ctx)["V"] < cfg.picard_tol:
                    w = w_new
                    break
                w = w_new
            else:
                raise ContractionError(
                    f"Picard iteration did not contract within "
                    f"{cfg.picard_max_iter} iterations in the step to "
                    f"t = {t:.6g}; reduce dt", t)
            v_next = w
    _require_finite(v_next, t)
    return (SimState(t=t, v=SpectralField(ctx.lmax, v_next, "stream"),
                     ou=ou_next), F_next())


# the same stepper under the name run() gives the picard scheme, so that a
# tracer wrapping each name counts the steps of each scheme
step_picard = step_imex


@dataclass
class SimResult:
    """The record of a run: its last good state, the ledger row of every
    state up to it, and the (t, v, z) snapshots."""

    state: SimState
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    snapshots: list = field(default_factory=list)

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


def _record(state: SimState, F: SpectralField, ledger: EnergyLedger,
            cfg: SolverConfig, ctx: OperatorContext,
            helper=None) -> np.ndarray:
    """Append the ledger row of the state, whose force is F, and return its
    N(v, z) for the step from it; a helper executor, if given, forms
    |u|_L4 meanwhile."""
    z = state.ou.z
    # N, |u|^4 and the squared norms of a state near blow-up can overflow;
    # the row rejects the non-finite entry, so the overflow stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        u_l4 = _start(helper, l4_norm, recombine(state))
        N = _nonlinear_rhs(state.v.coeffs, z, cfg.f, ctx)
        ledger.record_state(state.t, state.v, z,
                            SpectralField(ctx.lmax, N, "stream"), F, ctx,
                            u_l4=u_l4())
    return N


def run(cfg: SolverConfig, spec: NoiseSpec, *, ctx: OperatorContext,
        snapshot_every: int = 0, lanes: int = 1) -> SimResult:
    """Integrate to t_end on the model of ctx, recording the energy ledger
    at every step.

    The snapshots are the state every snapshot_every steps (none at 0),
    then the final state once.  A failed step (blow-up, or a Picard
    iteration that does not contract) aborts with the partial result, whose
    state and final snapshot are the last good state, attached to the
    raised error; a run whose t = 0 ledger row fails has no snapshot.

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
    state = SimState(t=0.0, v=v0, ou=make_ou_state(ctx, spec))
    result = SimResult(state=state)

    def snap(s: SimState):
        result.snapshots.append((s.t, s.v.coeffs.copy(), s.ou.z.coeffs.copy()))

    helper = None
    if lanes >= 2 and ctx.lmax >= _LANE_MIN_LMAX:
        # imported here: one lane never needs it, and it slows start-up
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(max_workers=1)
    stepper = step_picard if cfg.scheme == "picard" else step_imex
    F = effective_force(state.ou.z, cfg.f, ctx)
    try:
        with helper or contextlib.nullcontext():
            for k in range(cfg.n_steps + 1):
                if k > 0:
                    state, F = stepper(state, N, cfg, spec, ctx=ctx,
                                       helper=helper)
                    state.t = k * cfg.dt  # keep the grid free of accumulated rounding
                try:
                    N = _record(state, F, result.ledger, cfg, ctx, helper)
                except ValueError as err:
                    # coefficients can stay representable while a recorded
                    # quantity (N, |u|^4, squared norms) overflows: same policy
                    raise BlowUpError(state.t) from err
                result.state = state
                if snapshot_every > 0 and k % snapshot_every == 0:
                    snap(state)
    except StepFailure as err:
        err.result = result
        raise
    finally:
        # the final state once, if its ledger row was recorded: a run that
        # fails at its t = 0 row has no good state to snapshot
        if result.ledger.n and not (result.snapshots
                                    and result.snapshots[-1][0] == result.state.t):
            snap(result.state)
    return result
