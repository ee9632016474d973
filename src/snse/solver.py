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

The paths of an ensemble step in lockstep chunks (run steps one chunk; a
single path is a chunk of one): every per-step array has a leading path
axis, so the transform passes of nonlinear_B and l4_norm, the OU update,
the scheme's arithmetic, the norms of the Picard test and the ledger's
norms each make one call for the chunk.  Each path still draws from its
own noise streams and keeps its own ledger.  A stacked operation
broadcasts the one-path shapes (the Legendre matmuls, the FFT rows, the
elementwise updates) and reduces per path, so every path gets the bytes
it gets alone, whatever its chunk, and a Picard path stops iterating
where it converges.  The chunk size is a matter of speed only: chunk_cap
bounds it by the work arrays of the product pass.

A path fails in one place, the ledger row of the state a step reached.
The stepper returns every row: one that blew up keeps its non-finite
coefficients, and one whose Picard iteration stalled has a NaN v, so its
ledger row is refused (the H norms weigh every mode with l >= 1).  run
ends a stalled path as NO CONTRACTION and any other refused one as
BLOW-UP, and the path leaves the stack with its partial result.

The z lane runs ahead of v: z_{k+1} comes from ou_step alone, so the force
F(z_{k+1}) = -B(z_{k+1}) + alpha z_{k+1} + f that the ledger row of the next
state needs is known before the corrector of v starts, and |u_k|_L4 is
read by that row only.  With a helper thread (lanes >= 2 at lmax >=
_LANE_MIN_LMAX) the helper computes each, for the whole chunk, while the
calling thread runs the corrector or evaluates N(v_k, z_k); at one lane
the same calls run on the calling thread when their value is needed.
Each value comes from the same function on the same inputs, so the bytes
do not depend on the lane count.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import EnergyLedger, l4_norm, norms, record_rows
from .harmonics import ParameterError, SpectralField, _Pass, zero_field
from .noise import NoiseSpec, SubstepStreams, check_summability
from .operators import OperatorContext, nonlinear_B
from .ou import OUState, make_ou_state, ou_step, substep_factors

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
    "chunk_cap",
    "recombine",
]

SCHEMES = ("imex_euler", "imex_heun", "picard")

# the band limit from which run starts a helper thread: below it the
# hand-off costs about what B(z) and |u|_L4 save (CHANGES.md has the
# crossover measurement)
_LANE_MIN_LMAX = 48

# the float64 count of the work arrays that one chunk's product pass may
# take: a stack of paths amortizes per-call overhead at small band limits,
# and gains nothing once a pass outgrows the cache (CHANGES.md has the
# measurement)
_CHUNK_FLOATS = 2**17

DIAGNOSTIC_COLUMNS = ("t", "norm_H", "norm_V", "norm_DA", "norm_L4_u",
                      "int_V2", "int_bvvz", "int_Fv")


class StepFailure(RuntimeError):
    """A step could not be completed.

    t is the time the step was to reach, and result the partial SimResult
    of the path, whose state is the last good one, once run has ended
    the path; each subclass names its failure in reports by status.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t
        self.result = None


class BlowUpError(StepFailure):
    """A coefficient or a ledger entry of the state a step reached is not
    finite."""

    status = "BLOW-UP"

    def __init__(self, t: float):
        super().__init__(f"solution blew up at t = {t:.6g}: non-finite "
                         "coefficients", t)


class ContractionError(StepFailure):
    """The Picard iteration of a step did not contract."""

    status = "NO CONTRACTION"

    def __init__(self, t: float, max_iter: int):
        super().__init__(f"Picard iteration did not contract within "
                         f"{max_iter} iterations in the step to t = {t:.6g}; "
                         "reduce dt", t)


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


def chunk_cap(ctx: OperatorContext) -> int:
    """The most paths one chunk steps in lockstep at ctx's band limit: as
    many as nonlinear_B's pass holds in _CHUNK_FLOATS, and at least one."""
    return max(1, _CHUNK_FLOATS // _Pass(ctx.grid, ctx.lmax, 2).carve())


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
    not evaluated (in a stack, for the paths whose v + z is 0)."""
    u = v_coeffs + z.coeffs
    out = ctx.alpha * z.coeffs
    live = u.any(axis=-1)
    if live.all():
        out = -nonlinear_B(SpectralField(z.lmax, u, "stream"), ctx).coeffs + out
    elif live.any():
        out[live] = (-nonlinear_B(SpectralField(z.lmax, u[live], "stream"),
                                  ctx).coeffs + out[live])
    if f is not None:
        out = out + f.coeffs
    return out


def _v_decay_factor(ctx: OperatorContext, dt: float) -> np.ndarray:
    # exact semigroup of the diagonal part nu A + C (alpha acts on z only)
    return np.exp(-dt * (ctx.nu * ctx.lam_stokes + 1j * ctx.coriolis_diag))


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


def _rows(state: SimState, keep) -> SimState:
    """The paths of a stacked state at the rows keep (an index array or a
    mask); an int gives one path's state."""
    lmax, ou = state.v.lmax, state.ou
    return SimState(t=state.t,
                    v=SpectralField(lmax, state.v.coeffs[keep], "stream"),
                    ou=OUState(SpectralField(lmax, ou.z.coeffs[keep], "stream"),
                               ou.kappa, ou.substep_index))


def step_imex(state: SimState, N: np.ndarray, cfg: SolverConfig,
              spec: NoiseSpec, streams: SubstepStreams, *,
              ctx: OperatorContext, factors: tuple, helper=None) -> tuple:
    """One step of cfg.scheme from the stacked state, one path per row,
    whose N(v, z) is N: z by ou_step, the path of row i drawing from
    streams' row i, then v by integrating-factor Euler, Heun, or the fixed point
    of the trapezoidal mild map iterated from the Euler predictor (picard).
    factors are the run's constants (_v_decay_factor,
    ou.substep_factors).  Each path gets the bytes it gets alone, and a
    Picard path stops iterating where it converges.

    Returns the next state of every row, its force F(z), which a helper
    executor, if given, forms meanwhile, and the mask of the rows whose
    Picard iteration did not contract (their v is NaN).  A row that blew
    up keeps its non-finite coefficients: run ends it at its ledger row.
    """
    dt = cfg.dt
    E, ou_factors = factors
    ou = ou_step(state.ou, dt, spec, streams, ou_factors)
    z_next, v_n = ou.z, state.v.coeffs
    # z_next does not depend on v: its force is formed beside the corrector
    F = _start(helper, effective_force, z_next, cfg.f, ctx)
    stalled = np.zeros(len(N), dtype=bool)
    if cfg.scheme == "imex_euler":
        v_next = E * (v_n + dt * N)
    else:
        pred = E * (v_n + dt * N)
        base = E * v_n + 0.5 * dt * E * N
        if cfg.scheme == "imex_heun":
            v_next = base + 0.5 * dt * _nonlinear_rhs(pred, z_next, cfg.f, ctx)
        else:
            v_next = np.full_like(pred, np.nan)  # a stalled row stays NaN
            at = np.arange(len(pred))   # the row of each path iterating
            w, b, zs = pred, base, z_next
            for _ in range(cfg.picard_max_iter):
                w_new = b + 0.5 * dt * _nonlinear_rhs(w, zs, cfg.f, ctx)
                fin = np.isfinite(w_new).all(axis=-1)
                dw = SpectralField(ctx.lmax, w_new[fin] - w[fin], "stream")
                done = ~fin
                done[fin] = [x < cfg.picard_tol for x in norms(dw, ctx)["V"]]
                v_next[at[done]] = w_new[done]      # a blown-up row too
                if done.all():
                    break
                if done.any():
                    zs = SpectralField(ctx.lmax, zs.coeffs[~done], "stream")
                    w_new, b, at = w_new[~done], b[~done], at[~done]
                w = w_new
            else:
                stalled[at] = True
    v = SpectralField(ctx.lmax, v_next, "stream")
    return SimState(t=state.t + dt, v=v, ou=ou), F(), stalled


# the same stepper under the name run gives the picard scheme, so
# that a tracer wrapping each name counts the steps of each scheme
step_picard = step_imex


@dataclass
class SimResult:
    """The record of a run: its last good state, the ledger row of every
    state up to it, the (t, v, z) snapshots, and the StepFailure that ended
    it early, if one did."""

    state: SimState
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    snapshots: list = field(default_factory=list)
    failure: StepFailure | None = None

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


def _record(state: SimState, F: SpectralField, ledgers: list,
            cfg: SolverConfig, ctx: OperatorContext,
            helper=None) -> tuple[np.ndarray, np.ndarray]:
    """Append the ledger row of each path of the stacked state, whose force
    is F, to the path's ledger, and return N(v, z) for the step from it
    with the mask of the paths recorded: a row with a non-finite entry is
    not.  A helper executor, if given, forms |u|_L4 meanwhile."""
    z = state.ou.z
    u_l4 = _start(helper, l4_norm, recombine(state))
    N = _nonlinear_rhs(state.v.coeffs, z, cfg.f, ctx)
    ok = record_rows(ledgers, state.t, state.v, z,
                     SpectralField(ctx.lmax, N, "stream"), F, ctx, u_l4=u_l4())
    return N, ok


def run(cfg: SolverConfig, spec: NoiseSpec, seeds: list, *,
        ctx: OperatorContext, snapshot_every: int = 0,
        lanes: int = 1) -> list:
    """Integrate one path per seed, each driven by spec's noise drawn with
    its seed, in lockstep to t_end on the model of ctx, recording each
    path's energy ledger at every step.  Returns each path's SimResult, in
    order, with the bytes the path gets alone.

    The snapshots are the state every snapshot_every steps (none at 0),
    then the final state once.  A path that fails at a ledger row (module
    docstring) ends with the partial result, whose state and final
    snapshot are the last good state, and whose failure is the
    StepFailure, with the result attached; the other paths go on.  A path
    whose t = 0 ledger row fails has no snapshot.

    lanes is the number of CPUs this chunk may use.  From 2 lanes at lmax
    >= _LANE_MIN_LMAX one helper thread forms F(z) and |u|_L4 beside the
    calling thread (module docstring); it ends before run returns or
    raises, and the result is the same at any lane count.
    """
    for name, fld in (("v0", cfg.v0), ("f", cfg.f)):
        if fld is not None and fld.lmax != ctx.lmax:
            raise ValueError(f"{name} lmax {fld.lmax} != operator lmax {ctx.lmax}")
    if not check_summability(spec)["converged"]:
        raise ValueError("noise spectrum fails the summability check at "
                         f"delta = {spec.delta:g}")
    lmax, n = ctx.lmax, len(seeds)
    v0 = cfg.v0.coeffs if cfg.v0 is not None else zero_field(lmax).coeffs
    ou = make_ou_state(ctx, spec)
    z0 = np.zeros((n, v0.size), dtype=complex)
    state = SimState(t=0.0,
                     v=SpectralField(lmax, np.repeat(v0[None], n, 0), "stream"),
                     ou=OUState(SpectralField(lmax, z0, "stream"), ou.kappa))
    results = [SimResult(state=None) for _ in seeds]
    rows = list(range(n))               # the path of each row of state
    streams = SubstepStreams(seeds)     # the noise streams of the rows
    good = {i: (state, i) for i in rows}  # path -> its last good (state, row)
    factors = (_v_decay_factor(ctx, cfg.dt),
               substep_factors(ou, cfg.dt, spec))

    def finish(i: int, err: StepFailure | None = None):
        """Path i ends, failed with err or not: its record takes its last
        good state, snapshot once if its ledger row was recorded (one
        that fails at its t = 0 row has no good state to snapshot)."""
        res = results[i]
        res.state = _rows(*good[i])
        if err is not None:
            res.failure, err.result = err, res
        if res.ledger.n and not (res.snapshots
                                 and res.snapshots[-1][0] == res.state.t):
            res.snapshots.append((res.state.t, res.state.v.coeffs.copy(),
                                  res.state.ou.z.coeffs.copy()))

    helper = None
    if lanes >= 2 and lmax >= _LANE_MIN_LMAX:
        # imported here: one lane never needs it, and it slows start-up
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(max_workers=1)
    stepper = step_picard if cfg.scheme == "picard" else step_imex
    try:
        # a step or a ledger row of a state near blow-up can overflow (in
        # N, |u|^4, the squared norms, the FFTs); each turns the non-finite
        # value into a BLOW-UP, so the overflow stays silent
        with (helper or contextlib.nullcontext(),
              np.errstate(over="ignore", invalid="ignore")):
            F = effective_force(state.ou.z, cfg.f, ctx)
            stalled = np.zeros(n, dtype=bool)
            for k in range(cfg.n_steps + 1):
                if k > 0:
                    state, F, stalled = stepper(
                        state, N, cfg, spec, streams, ctx=ctx,
                        factors=factors, helper=helper)
                    state.t = k * cfg.dt  # keep the grid free of accumulated rounding
                N, ok = _record(state, F, [results[i].ledger for i in rows],
                                cfg, ctx, helper)
                for r, i in enumerate(rows):
                    if not ok[r]:   # where a path fails (module docstring)
                        finish(i, BlowUpError(state.t) if not stalled[r] else
                               ContractionError(state.t, cfg.picard_max_iter))
                        continue
                    good[i] = (state, r)
                    if snapshot_every > 0 and k % snapshot_every == 0:
                        results[i].snapshots.append(
                            (state.t, state.v.coeffs[r].copy(),
                             state.ou.z.coeffs[r].copy()))
                if not ok.all():
                    rows = [i for r, i in enumerate(rows) if ok[r]]
                    if not rows:
                        break
                    state, N = _rows(state, ok), N[ok]
                    streams = streams.rows(ok)
                    F = SpectralField(lmax, F.coeffs[ok], "stream")
    finally:
        for i in rows:
            finish(i)
    return results
