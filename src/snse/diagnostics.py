"""Norms, inequality monitors, energy ledgers, and a-priori bound reports.

Everything here is a pure function of recorded series or supplied fields;
the solver only appends rows.  The Gronwall-style report integrates each
a-priori constant from the recorded series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .harmonics import (
    QuadratureGrid,
    SpectralField,
    _mode_weights,
    _thread_pass,
    basis_eigenvalues,
    gauss_legendre_grid,
    grid_integral,
    inner_h,
    norm_h,
    smooth_length,
)
from .operators import OperatorContext, coriolis_apply, stokes_apply, trilinear_b

__all__ = [
    "l4_grid",
    "norms",
    "EnergyLedger",
    "record_rows",
    "energy_residual",
    "inequality_report",
    "b_form_constants",
    "gronwall_bound_report",
]

LAMBDA_1 = 2.0  # first positive eigenvalue of the vector Laplacian on the sphere


@lru_cache(maxsize=None)
def l4_grid(lmax: int) -> QuadratureGrid:
    """Grid on which |u|^4 (degree <= 4 lmax) of a band-limited field
    integrates exactly, with the next 5-smooth n_lon above 4 lmax."""
    return gauss_legendre_grid(2 * lmax + 2, smooth_length(4 * lmax + 1))


def l4_norm(field: SpectralField) -> float | list:
    """|u|_L4 of the velocity of a stream field: one synthesis of its three
    derivative columns and one irfft on l4_grid.  A stack of fields makes
    one pass and gives a list, each field's norm with its bytes alone."""
    grid = l4_grid(field.lmax)
    lead = field.coeffs.shape[:-1]
    u = _thread_pass(grid, field.lmax, 1, lead).synthesize(field.coeffs)
    u *= u
    u[..., 0, :, :] += u[..., 1, :, :]              # |u|^2 (u_phi = -u[1])
    u[..., 0, :, :] *= u[..., 0, :, :]
    if not lead:
        return float(grid_integral(grid, u[0])) ** 0.25
    return [float(grid_integral(grid, row[0])) ** 0.25 for row in u]


def norms(field: SpectralField, ctx: OperatorContext) -> dict:
    """Parseval norms H, V = |A^{1/2}.| and DA = |A.| of a field on the
    context's band limit; |.|_L4 is l4_norm.  Of a stack of fields, each
    norm is a list over the stack, each field's with its bytes alone."""
    c2 = np.abs(field.coeffs) ** 2 * _mode_weights(field.lmax)
    if field.kind == "stream":
        c2 = c2 * basis_eigenvalues(field.lmax)
    lam_s = ctx.lam_stokes
    sums = {"H": c2.sum(axis=-1), "V": (c2 * lam_s).sum(axis=-1),
            "DA": (c2 * lam_s**2).sum(axis=-1)}
    if c2.ndim == 1:
        return {k: float(s) ** 0.5 for k, s in sums.items()}
    return {k: [float(x) ** 0.5 for x in s] for k, s in sums.items()}


# ---------------------------------------------------------------------------
# Energy ledger
# ---------------------------------------------------------------------------

_SERIES = ("t", "v_h2", "v_v2", "av2", "b_vvz", "f_v", "F_h2", "z_h2", "z_v2", "u_l4")


@dataclass
class EnergyLedger:
    """Per-step samples of the energy-identity ingredients.

    Series: |v|_H^2, |v|_V^2, |Av|_H^2, b(v,v,z), (F,v), |F|_H^2, |z|_H^2,
    |z|_V^2, |u|_L4 at each recorded time.
    b(v,v,z) is taken from the nonlinearity the scheme integrates,
    (N(v,z), v) - (F, v) with N = -B(v+z) + alpha z + f and
    F = -B(z) + alpha z + f, so the budget closes on any grid.
    Integrals are trapezoidal over the recorded grid.  record_rows fills
    the ledgers of a stack of paths.
    """

    data: dict = field(default_factory=lambda: {k: [] for k in _SERIES})

    @property
    def n(self) -> int:
        return len(self.data["t"])

    def record_state(self, **kw) -> None:
        """Append the row of one state: t and every series.  A row with a
        non-finite entry raises ValueError and leaves the ledger as it
        was."""
        if set(kw) != set(_SERIES):
            missing = set(_SERIES) ^ set(kw)
            raise ValueError(f"ledger row mismatch: {sorted(missing)}")
        t = float(kw["t"])
        if self.n and t <= self.data["t"][-1]:
            raise ValueError("ledger times must increase")
        row = {k: float(kw[k]) for k in _SERIES}
        for k, val in row.items():
            if not math.isfinite(val):
                raise ValueError(f"non-finite ledger entry {k} at t={t}")
        for k, val in row.items():
            self.data[k].append(val)

    def series(self, name: str) -> np.ndarray:
        return np.asarray(self.data[name], dtype=np.float64)

    def cumulative(self, name: str) -> np.ndarray:
        """Running trapezoidal integral of a series over the time grid."""
        t, y = self.series("t"), self.series(name)
        if t.size == 0:
            return np.zeros(0)
        steps = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
        return np.concatenate([[0.0], np.cumsum(steps)])

    def integral(self, name: str) -> float:
        c = self.cumulative(name)
        return float(c[-1]) if c.size else 0.0

    def sup(self, name: str) -> float:
        y = self.series(name)
        return float(y.max()) if y.size else 0.0


def record_rows(ledgers: list, t: float, v: SpectralField, z: SpectralField,
                N: SpectralField, F: SpectralField, ctx: OperatorContext, *,
                u_l4: list) -> np.ndarray:
    """Append to ledgers[i] the row at time t of path i of the stacked
    state (v, z), one path per row, given N(v, z), F and u_l4[i] = |v +
    z|_L4.  Every term comes from one stacked pass with each path's bytes
    alone.  A row with a non-finite entry (a squared norm of a state near
    blow-up can overflow) leaves its ledger as it was; returns the mask of
    the rows recorded."""
    nv, z_v = norms(v, ctx), norms(z, ctx)["V"]
    f_v, n_v, F_h, z_h = inner_h(F, v), inner_h(N, v), norm_h(F), norm_h(z)
    ok = np.ones(len(ledgers), dtype=bool)
    for i, ledger in enumerate(ledgers):
        try:
            ledger.record_state(
                t=t,
                v_h2=nv["H"][i] ** 2, v_v2=nv["V"][i] ** 2,
                av2=nv["DA"][i] ** 2,
                b_vvz=n_v[i] - f_v[i],
                f_v=f_v[i],
                F_h2=F_h[i] ** 2,
                z_h2=z_h[i] ** 2,
                z_v2=z_v[i] ** 2,
                u_l4=u_l4[i],
            )
        except ValueError:
            ok[i] = False
    return ok


def energy_residual(ledger: EnergyLedger, nu: float) -> float:
    """|v(T)|^2 - |v(0)|^2 + 2 nu int |v|_V^2 - 2 int b(v,v,z) - 2 int (F,v).

    Zero for the continuous flow; shrinks at the scheme order for discrete
    runs with trapezoidal integrals.
    """
    v_h2 = ledger.series("v_h2")
    if v_h2.size == 0:
        return 0.0
    return float(v_h2[-1] - v_h2[0]
                 + 2.0 * nu * ledger.integral("v_v2")
                 - 2.0 * ledger.integral("b_vvz")
                 - 2.0 * ledger.integral("f_v"))


# ---------------------------------------------------------------------------
# Inequality report
# ---------------------------------------------------------------------------

CHECKS = ("poincare", "ladyzhenskaya", "b1", "b2", "b5", "coriolis_zero", "b_antisym")


def _worst(rows: list) -> dict:
    return max(rows, key=lambda r: r["ratio"])


def inequality_report(samples: list, ctx: OperatorContext) -> dict:
    """Worst case (largest ratio) of every monitored inequality on the
    samples, keyed by check name.

    Trilinear checks consume rotated triples (i, i+1, i+2 mod n) so every
    sample appears in every argument slot.
    """
    if not samples:
        raise ValueError("need at least one sample field")
    n = len(samples)
    per = {name: [] for name in CHECKS}

    def add(name, lhs, rhs, input_id):
        per[name].append({"lhs": lhs, "rhs": rhs,
                          "ratio": lhs / max(rhs, 1e-300),
                          "input_id": input_id})

    nrm = [norms(s, ctx) for s in samples]
    l4 = [l4_norm(s) for s in samples]
    for i, (u, nu_, l4u) in enumerate(zip(samples, nrm, l4)):
        add("poincare", LAMBDA_1 * nu_["H"] ** 2, nu_["V"] ** 2, f"s{i}")
        add("ladyzhenskaya", l4u, math.sqrt(nu_["H"] * nu_["V"]), f"s{i}")
        add("coriolis_zero", abs(inner_h(coriolis_apply(u, ctx), u)),
            max(2.0 * abs(ctx.omega), 1.0) * nu_["H"] ** 2, f"s{i}")
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        u, v, w = samples[i], samples[j], samples[k]
        nu_, nv_, nw_ = nrm[i], nrm[j], nrm[k]
        uid = f"s{i}|s{j}|s{k}"
        buvw = abs(trilinear_b(u, v, w, ctx))
        add("b1", buvw, (math.sqrt(nu_["H"] * nu_["V"])
                         * math.sqrt(nv_["H"] * nv_["V"]) * nw_["V"]), uid)
        add("b2", buvw, (math.sqrt(nu_["H"] * nu_["V"])
                         * math.sqrt(nv_["V"] * nu_["DA"]) * nw_["H"]), uid)
        add("b5", buvw, l4[i] * nv_["V"] * l4[k], uid)
        add("b_antisym", abs(trilinear_b(u, w, w, ctx)),
            nu_["V"] * nw_["V"] ** 2, uid)
    return {name: _worst(rows) for name, rows in per.items()}


def b_form_constants(samples: list, ctx: OperatorContext) -> dict:
    """Empirical constants of the convective estimates used by the
    second-level energy bound (all against |Av|^{3/2}-type right sides),
    plus the |b(v,v,z)| <= c |v| |v|_V |z|_V pattern of the first level:

        vvA: |b(v,v,Av)|   / (|v|^{1/2} |v|_V       |Av|^{3/2})
        vzA: |b(v,z,Av)|   / (|v|^{1/2} |v|_V^{1/2} |z|_V^{1/2} |Av|^{3/2})
        zvA: |b(z,v,Av)|   / (|z|^{1/2} |z|_V^{1/2} |v|_V^{1/2} |Av|^{3/2})
        vvz: |b(v,v,z)|    / (|v| |v|_V |z|_V)

    Returns the max ratio per form over rotated sample pairs.
    """
    if len(samples) < 2:
        raise ValueError("need at least two sample fields")
    n = len(samples)
    out = {"vvA": 0.0, "vzA": 0.0, "zvA": 0.0, "vvz": 0.0}
    for i in range(n):
        v, z = samples[i], samples[(i + 1) % n]
        nv_, nz_ = norms(v, ctx), norms(z, ctx)
        av = stokes_apply(v, ctx)
        da32 = nv_["DA"] ** 1.5
        forms = {"vvA": ((v, v, av), math.sqrt(nv_["H"]) * nv_["V"] * da32),
                 "vzA": ((v, z, av), math.sqrt(nv_["H"] * nv_["V"] * nz_["V"]) * da32),
                 "zvA": ((z, v, av), math.sqrt(nz_["H"] * nz_["V"] * nv_["V"]) * da32),
                 "vvz": ((v, v, z), nv_["H"] * nv_["V"] * nz_["V"])}
        # a right side that vanishes (|v|_V = 0 on the l = 1 band of the
        # shifted spectrum, where b is round-off) bounds no constant
        for key, (args, rhs) in forms.items():
            if rhs > 1e-300:
                out[key] = max(out[key], abs(trilinear_b(*args, ctx)) / rhs)
    return out


# ---------------------------------------------------------------------------
# A-priori bound report
# ---------------------------------------------------------------------------


def gronwall_bound_report(ledger: EnergyLedger, nu: float, *,
                          c_emp: float = 1.0) -> dict:
    """Evaluate the a-priori constants K1..K4 from a recorded run and flag
    whether the corresponding observed quantities stay below them.

    Splitting parameters: the first energy level uses eps = nu (only
    eps/2 < 2 nu is needed there); the second level must absorb three
    eps |Av|^2 terms plus eps/4, so it uses eps_da = 4 nu / 13, which makes
    its dissipation margin 2 nu - 13 eps_da / 4 = nu exactly.  The Young
    constant of the second level is C(eps) = 27 c^4 / (256 eps^3) with c
    the supplied empirical convective constant (measure with
    b_form_constants; 1.0 is a conservative default).

    K1/K2 drop the Young remainder terms of the force when int |F|^2 = 0,
    where no splitting of (F, v) is needed at all; K3/K4 integrate the
    recorded series.  The flags allow a relative slack of 1e-9.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if ledger.n < 2:
        raise ValueError("need a recorded run (>= 2 ledger rows)")

    # past float range (heavy-tailed exponents, a huge c_emp) a constant is
    # astronomically large but still a bound, so it saturates to inf
    def _saturate(f, *args) -> float:
        try:
            return f(*args)
        except OverflowError:
            return math.inf

    def _times_c_eps(x):  # a zero integrand stays 0, also at C(eps) = inf
        return np.where(x > 0, C_eps, 0.0) * x
    eps = nu
    eps_da = 4.0 * nu / 13.0
    denom1 = 2.0 * nu - eps / 2.0          # = 3 nu / 2
    denom2 = 2.0 * nu - 13.0 * eps_da / 4.0  # = nu
    C_eps = 27.0 * _saturate(pow, c_emp, 4) / (256.0 * eps_da**3)

    t = ledger.series("t")
    v_h2, v_v2 = ledger.series("v_h2"), ledger.series("v_v2")
    z_h2, z_v2 = ledger.series("z_h2"), ledger.series("z_v2")
    int_F2 = ledger.integral("F_h2")
    int_vz = float(np.trapezoid(v_h2 * z_v2, t))

    num1 = v_h2[0] + (2.0 / eps) * int_vz
    if int_F2 > 0.0:
        num1 += (2.0 / eps) * int_F2 + (eps / 2.0) * ledger.integral("v_h2")
    K1 = num1 / denom1
    K2 = denom1 * K1

    theta = _times_c_eps(v_h2 * v_v2 + v_h2 * z_v2 + z_h2 * z_v2)
    int_theta = float(np.trapezoid(theta, t))
    K3 = (v_v2[0] + int_F2 / eps_da) * _saturate(math.exp, int_theta)

    grow = _times_c_eps(v_h2 * v_v2**2 + v_h2 * v_v2 * z_v2 + z_h2 * z_v2 * v_v2)
    K4 = (v_v2[0] + float(np.trapezoid(grow, t)) + int_F2 / eps_da) / denom2

    observed = {
        "int_v2_V": ledger.integral("v_v2"),
        "sup_v_h2": ledger.sup("v_h2"),
        "sup_v_v2": ledger.sup("v_v2"),
        "int_av2": ledger.integral("av2"),
    }
    slack = 1.0 + 1e-9
    satisfied = {
        "K1": observed["int_v2_V"] <= K1 * slack,
        "K2": observed["sup_v_h2"] <= K2 * slack,
        "K3": observed["sup_v_v2"] <= K3 * slack,
        "K4": observed["int_av2"] <= K4 * slack,
    }
    return {
        "K1": K1, "K2": K2, "K3": K3, "K4": K4,
        "c_emp": c_emp, "C_eps": C_eps,
        "epsilon": eps, "epsilon_da": eps_da,
        "observed": observed, "satisfied": satisfied,
    }
