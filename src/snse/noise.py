"""Subordinated cylindrical stable noise.

The process is built as L = W(X): one increasing (beta/2)-stable
subordinator X shared across every mode, with independent Gaussian
coordinate increments evaluated at the random clock.  Increments over a
step of length dt therefore consist of a single positive-stable draw dX
plus i.i.d. N(0, dX) draws per real basis coordinate; each real coordinate
increment then has characteristic function

    E exp(i k dL) = exp(-dt (k^2/2)^(beta/2)),

i.e. a symmetric beta-stable marginal, while distinct coordinates are
uncorrelated but dependent through the shared clock.

Per-mode amplitudes sigma_l depend on the degree l only; the (2l+1)-fold
multiplicity is handled where sums over modes are taken.  The truncation
is the band limit of the field that is driven.

Randomness is counter-based: every draw site derives a fresh Philox stream
from (seed, purpose, counter), so increment streams are reproducible
bitwise regardless of scheduling or worker count.  A stack of paths draws
one block per substep from one stream per path: each stream gives its row
the draws a path alone takes from it, and the Kanter transform and the
Gaussian packing run once on the stack.  Both are elementwise numpy
ufuncs, which give each element the same bits in an array of any shape,
so every row keeps the bits of its path alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import ParameterError, _mode_weights, mode_degrees, n_modes

__all__ = [
    "NoiseSpec",
    "LevyIncrementBlock",
    "SigmaRule",
    "parse_sigma_rule",
    "substream",
    "levy_increment_block",
    "check_moment_order",
    "check_summability",
    "moment_scaling_estimate",
]

# purpose tags for counter-based streams (first spawn-key entry)
PURPOSE_SUBSTEP = 1      # solver / OU substep increments, counter = absolute substep
PURPOSE_MC = 2           # vectorized Monte-Carlo batches, counter = call site index
PURPOSE_PATH = 3         # per-path ensemble seeds, counter = path index


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream (seed; key...).   Pure function of its
    arguments: the same site yields the same bits on any worker layout."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SigmaRule:
    """Named amplitude rule sigma_l (function of the degree l only).

    kind "power": sigma_l = l^(-gamma); "band": value for l <= l_cut else 0;
    "const": constant; "zero": identically 0.
    """

    kind: str
    gamma: float = 0.0
    l_cut: int = 0
    value: float = 0.0

    def __call__(self, l: np.ndarray | int) -> np.ndarray:
        l = np.asarray(l, dtype=np.float64)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                out = np.where(l >= 1, l, 1.0) ** (-self.gamma)
            return np.where(l >= 1, out, 0.0)
        if self.kind == "band":
            return np.where((l >= 1) & (l <= self.l_cut), self.value, 0.0)
        if self.kind == "const":
            return np.where(l >= 1, self.value, 0.0)
        if self.kind == "zero":
            return np.zeros_like(l)
        raise ValueError(f"unknown sigma rule {self.kind!r}")


def parse_sigma_rule(text: str) -> SigmaRule:
    """Parse amplitude presets: "power:gamma=2.0", "band:l<=8,value=0.1",
    "const:0.05", "zero"."""
    raw = text.strip()
    if raw == "zero":
        return SigmaRule("zero")
    if ":" not in raw:
        raise ValueError(f"malformed sigma rule {text!r}")
    kind, _, args = raw.partition(":")
    kind = kind.strip()
    try:
        if kind == "power":
            k, _, v = args.partition("=")
            if k.strip() != "gamma":
                raise ValueError
            return SigmaRule("power", gamma=float(v))
        if kind == "band":
            lpart, _, vpart = args.partition(",")
            lk, _, lv = lpart.partition("<=")
            vk, _, vv = vpart.partition("=")
            if lk.strip() != "l" or vk.strip() != "value":
                raise ValueError
            return SigmaRule("band", l_cut=int(lv), value=float(vv))
        if kind == "const":
            return SigmaRule("const", value=float(args))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed sigma rule {text!r}") from exc
    raise ValueError(f"unknown sigma rule kind {kind!r} in {text!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Stable-noise description.

    beta in (0, 2]; sigma_rule maps degree l to amplitude; delta is the
    regularity exponent of the summability hypothesis and of
    moment_scaling_estimate; n_substeps is the subordinator resolution per
    solver step.  The law does not depend on a truncation: every draw
    takes the band limit of the field it drives.
    """

    beta: float
    sigma_rule: SigmaRule | str = "zero"
    delta: float = 0.0
    seed: int = 0
    n_substeps: int = 1

    def __post_init__(self):
        if not (0.0 < self.beta <= 2.0):
            raise ParameterError("beta", f"beta = {self.beta:g} must lie in (0, 2]")
        if isinstance(self.sigma_rule, str):
            try:
                rule = parse_sigma_rule(self.sigma_rule)
            except ValueError as err:
                raise ParameterError("sigma_rule", str(err)) from None
            object.__setattr__(self, "sigma_rule", rule)
        if not self.delta >= 0:
            raise ParameterError("delta", f"delta = {self.delta:g} must be >= 0")
        if self.seed < 0:
            raise ParameterError("seed", f"seed = {self.seed} must be >= 0")
        if self.n_substeps < 1:
            raise ParameterError("n_substeps", "n_substeps must be >= 1")

    def sigma_per_mode(self, lmax: int) -> np.ndarray:
        return self.sigma_rule(mode_degrees(lmax)[0])


@dataclass
class LevyIncrementBlock:
    """Shared subordinator increments plus per-mode coordinate increments.

    One path: dX is a float and dL has shape (n_modes,).  A stack of k
    paths: dX has shape (k,) and dL shape (k, n_modes), row i the block of
    path i.  dL is stored in the m >= 0 complex layout: the m = 0 slot is
    a real N(0, dX) draw; an m > 0 slot packs the two independent N(0, dX)
    real coordinate draws as (xi1 - i xi2) sqrt(dX/2), so the implied real
    coordinates are i.i.d. N(0, dX) as required.
    """

    dX: float | np.ndarray
    dL: np.ndarray

    def __post_init__(self):
        if (np.asarray(self.dX) < 0).any():
            raise ValueError("subordinator increment must be >= 0")


def _kanter(a: float, scale_t: float, U: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Kanter representation of the positive a-stable law with Laplace
    transform E exp(-r X) = exp(-scale_t * r^a), elementwise in U and E:

    X = scale_t^{1/a} sin(aU) sin((1-a)U)^{(1-a)/a} / (sin(U)^{1/a} E^{(1-a)/a})

    with U ~ Uniform(0, pi), E ~ Exp(1); evaluated in log space.  U and E
    are clipped in place away from the ends of their ranges.
    """
    np.clip(U, 1e-12, math.pi - 1e-12, out=U)
    np.clip(E, 1e-300, None, out=E)
    logx = (
        math.log(scale_t) / a
        + np.log(np.sin(a * U))
        + (1.0 - a) / a * np.log(np.sin((1.0 - a) * U))
        - np.log(np.sin(U)) / a
        - (1.0 - a) / a * np.log(E)
    )
    return np.exp(logx)


def _positive_stable_batch(index: float, scale_t: float, rng: np.random.Generator,
                           size) -> np.ndarray:
    """Positive index-stable draws of Laplace transform
    E exp(-r X) = exp(-scale_t * r^index) from one generator: every U of
    size, then every E, through _kanter.  index = 1 is the deterministic
    clock scale_t and draws nothing."""
    if index == 1.0:
        return np.full(size, scale_t, dtype=np.float64)
    U = rng.uniform(0.0, math.pi, size=size)
    E = rng.standard_exponential(size=size)
    return _kanter(index, scale_t, U, E)


def _pack_gaussians(xi: np.ndarray, dX: np.ndarray, lmax: int) -> np.ndarray:
    """Standard-normal pairs xi of shape dX.shape + (n_modes, 2) as N(0, dX)
    coordinate increments in the complex layout."""
    _, ms = mode_degrees(lmax)
    root = np.sqrt(dX)[..., None]
    out = np.where(
        ms == 0,
        xi[..., 0] * root,
        (xi[..., 0] - 1j * xi[..., 1]) * (root / math.sqrt(2.0)),
    )
    out[..., 0] = 0.0  # l = 0 slot carries no flow
    return out


def levy_increment_block(spec: NoiseSpec, dt: float,
                         rng: np.random.Generator | Sequence[np.random.Generator],
                         *, lmax: int) -> LevyIncrementBlock:
    """Draw the shared clock dX, then per-mode Gaussians on degrees up to
    lmax.  At beta = 2, dX = dt draws nothing.

    rng is one Generator for one path's block, or a sequence of k
    Generators for a stack of k paths' blocks.  Each generator gives its
    row the same draws in the same order (the clock's U, its E, then the
    Gaussians), so row i has the bits of the one-path block drawn from
    rng[i]; the Kanter transform and the packing run once on the stack.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    one = isinstance(rng, np.random.Generator)
    gens = [rng] if one else rng
    a = spec.beta / 2.0
    U, E = np.empty(len(gens)), np.empty(len(gens))
    # interleaved (re, im) pairs per mode slot: the draw sequence for the
    # modes below any l is then independent of lmax, so refining the
    # truncation keeps the shared modes on the same noise path
    xi = np.empty((len(gens), n_modes(lmax), 2))
    for i, gen in enumerate(gens):
        if a != 1.0:
            U[i] = gen.uniform(0.0, math.pi)
            E[i] = gen.standard_exponential()
        gen.standard_normal(out=xi[i])
    dX = (np.full(len(gens), dt, dtype=np.float64) if a == 1.0
          else _kanter(a, dt, U, E))
    dL = _pack_gaussians(xi, dX, lmax)
    if one:
        return LevyIncrementBlock(dX=float(dX[0]), dL=dL[0])
    return LevyIncrementBlock(dX=dX, dL=dL)


# ---------------------------------------------------------------------------
# Summability and moment diagnostics
# ---------------------------------------------------------------------------


def check_summability(spec: NoiseSpec) -> dict:
    """Partial sum of sum_l |sigma_l|^beta (l(l+1))^(beta*delta), one term
    per degree, with an integral-test tail bound.

    value is the partial sum to l = 10^6; converged means the estimated
    tail is below 1e-3 relative to the sum.  The verdict is computed once
    per process for each (rule, beta, delta); every call returns a fresh
    dict.
    """
    return dict(_summability(spec.sigma_rule, spec.beta, spec.delta))


def _tail_sum(term, lo: int, l_star: int) -> tuple:
    """(partial, tail, slope) of sum_{l >= lo} term(l).

    partial sums term over lo..l_star in chunks of 10^5 degrees; tail is the
    integral-test estimate beyond l_star from the local log-log slope of
    term there: inf when the slope is >= -1, and 0 (slope None) when term
    vanishes at l_star.
    """
    partial = 0.0
    for a in range(lo, l_star + 1, 10**5):
        b = min(a + 10**5 - 1, l_star)
        partial += term(np.arange(a, b + 1, dtype=np.float64)).sum()
    x0, x1 = float(l_star), float(l_star) * 1.01
    t0, t1 = float(term(np.array([x0]))[0]), float(term(np.array([x1]))[0])
    if t0 == 0.0:
        return float(partial), 0.0, None
    slope = math.log(t1 / t0) / math.log(x1 / x0)
    tail = math.inf if slope >= -1.0 - 1e-9 else t0 * x0 / (-slope - 1.0)
    return float(partial), tail, slope


@lru_cache(maxsize=None)
def _summability(rule: SigmaRule, beta: float, delta: float) -> dict:
    def term(l: np.ndarray) -> np.ndarray:
        return np.abs(rule(l)) ** beta * (l * (l + 1.0)) ** (beta * delta)

    if rule.kind == "zero" or (rule.kind == "const" and rule.value == 0.0):
        return {"value": 0.0, "converged": True, "tail_bound": 0.0, "slope": None}
    if rule.kind == "band":
        ls = np.arange(1, rule.l_cut + 1, dtype=np.float64)
        return {"value": float(term(ls).sum()), "converged": True,
                "tail_bound": 0.0, "slope": None}
    value, tail, slope = _tail_sum(term, 1, 10**6)
    converged = tail < 1e-3 * max(value, 1e-300)
    return {"value": value, "converged": converged, "tail_bound": tail, "slope": slope}


def check_moment_order(p: float, beta: float) -> None:
    """The p-th moment of the noise is finite for p > 0, and only for
    p < beta unless the noise is Gaussian (beta = 2)."""
    if not p > 0:
        raise ParameterError("p", f"p = {p:g} must be positive")
    if beta < 2.0 and not p < beta:
        raise ParameterError("p", f"p = {p:g} with beta = {beta:g}: p < β "
                             "required (higher moments of the driving noise "
                             "are infinite)")


def moment_scaling_estimate(spec: NoiseSpec, p: float, t_list,
                            n_paths: int, *, lmax: int) -> list:
    """Monte-Carlo estimates of E | A^delta G L(t) |^p per t on degrees up
    to lmax, delta of spec.

    Exact in distribution per time: conditionally on the clock X(t), every
    real coordinate of L(t) is N(0, X(t)), so each estimate needs a single
    subordinator draw per path (no substepping).  p obeys
    check_moment_order.
    """
    check_moment_order(p, spec.beta)
    ls, ms = mode_degrees(lmax)
    lam = (ls * (ls + 1.0)).astype(float)
    weight = spec.sigma_rule(ls) * np.where(ls >= 1, lam, 1.0) ** spec.delta
    wm = _mode_weights(lmax).copy()
    wm[0] = 0.0
    out = []
    for i, t in enumerate(t_list):
        g = substream(spec.seed, PURPOSE_MC, i)
        X = _positive_stable_batch(spec.beta / 2.0, float(t), g, n_paths)
        xi2 = g.standard_normal((n_paths, len(ls))) ** 2
        xi2 = np.where(ms == 0, xi2, 0.5 * (xi2 + g.standard_normal((n_paths, len(ls))) ** 2))
        norm2 = X * ((weight**2 * wm)[None, :] * xi2).sum(axis=1)
        out.append((float(t), float(np.mean(norm2 ** (p / 2.0)))))
    return out
