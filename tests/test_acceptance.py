"""Acceptance suite: ten gate criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every test asserts at its stated tolerance and wall-clock budget.
"""

import math
import os
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snse.cli import main as cli_main
from snse.diagnostics import energy_residual, gronwall_bound_report, norms
from snse.harmonics import (inner_h, mode_degrees, n_modes, norm_h,
                            random_stream_field, scalar_analysis,
                            scalar_synthesis, unit_stream_mode,
                            vector_analysis, vector_synthesis, zero_field)
from snse.noise import (NoiseSpec, _positive_stable_batch,
                        levy_increment_block, moment_scaling_estimate,
                        substream)
from snse.operators import (OperatorContext, coriolis_apply, nonlinear_B,
                            stokes_apply, trilinear_b)
from snse.ou import ou_moment_check, zlp_bound
from snse.solver import SolverConfig, run


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_trilinear_and_coriolis_identities():
    t0 = time.time()
    lmax = 15
    ctx = OperatorContext(lmax, omega=5.0)
    rng = np.random.default_rng(1)
    fields = [random_stream_field(lmax, rng, decay=1.5, norm=1.0)
              for _ in range(100)]
    nrm = [norms(f, ctx) for f in fields]
    worst_diag = worst_anti = worst_cu = worst_cau = worst_poin = 0.0
    for i in range(100):
        v, w, z = fields[i], fields[(i + 1) % 100], fields[(i + 2) % 100]
        nv, nw, nz = nrm[i], nrm[(i + 1) % 100], nrm[(i + 2) % 100]
        diag = abs(trilinear_b(v, w, w, ctx)) / (nv["V"] * nw["V"] ** 2)
        anti = (abs(trilinear_b(v, z, w, ctx) + trilinear_b(v, w, z, ctx))
                / (nv["V"] * nz["V"] * nw["V"]))
        worst_diag = max(worst_diag, diag)
        worst_anti = max(worst_anti, anti)
        cu = coriolis_apply(v, ctx)
        worst_cu = max(worst_cu, abs(inner_h(cu, v))
                       / (2.0 * ctx.omega * nv["H"] ** 2))
        worst_cau = max(worst_cau, abs(inner_h(cu, stokes_apply(v, 1.0, ctx)))
                        / (2.0 * ctx.omega * nv["V"] ** 2))
        worst_poin = max(worst_poin, 2.0 * nv["H"] ** 2 / nv["V"] ** 2)
    elapsed = time.time() - t0
    ok = (worst_diag <= 1e-9 and worst_anti <= 1e-9
          and worst_cu <= 1e-10 and worst_cau <= 1e-10
          and worst_poin <= 1.0 + 1e-12 and elapsed < 10.0)
    report(1, ok,
           f"100 fields at lmax={lmax}: b(v,w,w) {worst_diag:.2e} (<=1e-9), "
           f"antisymmetry {worst_anti:.2e} (<=1e-9), (Cu,u) {worst_cu:.2e} "
           f"and (Cu,Au) {worst_cau:.2e} (<=1e-10), Poincare ratio "
           f"{worst_poin:.12f} (<=1), {elapsed:.1f}s (<10s)")


def test_criterion_02_basis_eigenpairs_and_round_trips():
    t0 = time.time()
    lmax = 15
    ctx = OperatorContext(lmax)
    worst_eig = worst_norm = worst_rt = 0.0
    for l in range(1, lmax + 1):
        for m in range(0, l + 1):
            zmode = unit_stream_mode(lmax, l, m)
            au = stokes_apply(zmode, 1.0, ctx)
            worst_eig = max(worst_eig, float(np.max(np.abs(
                au.coeffs - l * (l + 1.0) * zmode.coeffs))))
            worst_norm = max(worst_norm, abs(norm_h(zmode) - 1.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = random_stream_field(lmax, rng, decay=1.5, norm=1.0)
        back = vector_analysis(vector_synthesis(f, ctx.grid), lmax)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - f.coeffs))))
        g = random_stream_field(lmax, rng, decay=1.5, norm=1.0)
        g.kind = "scalar"
        back = scalar_analysis(scalar_synthesis(g, ctx.grid), lmax)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - g.coeffs))))
    elapsed = time.time() - t0
    ok = (worst_eig <= 1e-10 and worst_norm <= 1e-9 and worst_rt < 1e-10
          and elapsed < 5.0)
    report(2, ok,
           f"eigenvalue defect {worst_eig:.2e} (<=1e-10), unit-norm defect "
           f"{worst_norm:.2e} (<=1e-9), transform round-trip {worst_rt:.2e} "
           f"(<1e-10), {elapsed:.1f}s (<5s)")


def test_criterion_03_single_mode_decay_exact():
    t0 = time.time()
    nu, omega, l = 0.7, 3.0, 3
    worst = 0.0
    for dt in (0.1, 0.05, 0.01):
        for scheme in ("imex_euler", "imex_heun"):
            cfg = SolverConfig(dt=dt, t_end=1.0, scheme=scheme,
                               v0=unit_stream_mode(5, l, 2))
            res = run(cfg, NoiseSpec(beta=2.0),
                      ctx=OperatorContext(5, nu=nu, omega=omega))
            got = norm_h(res.state.v)
            exact = math.exp(-nu * l * (l + 1.0) * 1.0)
            worst = max(worst, abs(got - exact) / exact)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    report(3, ok,
           f"single-mode decay over dt in (0.1, 0.05, 0.01), both schemes: "
           f"worst relative error {worst:.2e} (<1e-8), {elapsed:.2f}s (<1s)")


def test_criterion_04_nonlinear_term_consistent_with_trilinear_form():
    t0 = time.time()
    lmax = 10
    ctx = OperatorContext(lmax)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(3):
        u = random_stream_field(lmax, rng, decay=1.5, norm=1.0)
        Bu = nonlinear_B(u, ctx)
        for l in range(1, 6):
            for m in range(0, l + 1):
                w = unit_stream_mode(lmax, l, m)
                lhs = inner_h(Bu, w)
                rhs = trilinear_b(u, u, w, ctx)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(4, ok,
           f"(B(u), w) vs b(u, u, w) over all w with l<=5, 3 random u at "
           f"lmax={lmax}: worst defect {worst:.2e} (<=1e-8), "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_05_subordinator_laplace_transform():
    t0 = time.time()
    worst = 0.0
    for k, beta in enumerate((1.2, 1.5, 1.8)):
        rng = substream(0, 2, 500 + k)
        clock = _positive_stable_batch(beta / 2.0, 1.0, rng, 100_000)
        for r in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.exp(-r * clock)))
            exact = math.exp(-(r ** (beta / 2.0)))
            worst = max(worst, abs(emp / exact - 1.0))
    spec = NoiseSpec(beta=2.0, sigma_rule="zero")
    g = substream(0, 2, 510)
    clock_exact = all(levy_increment_block(spec, dt, g, lmax=4).dX == dt
                      for dt in (0.5, 0.1, 0.0375))
    elapsed = time.time() - t0
    ok = worst <= 0.01 and clock_exact and elapsed < 10.0
    report(5, ok,
           f"1e5 draws, beta in (1.2, 1.5, 1.8), r in (0.5, 1, 2): worst "
           f"Laplace error {worst*100:.3f}% (<=1%); beta=2 clock exact: "
           f"{clock_exact}; {elapsed:.1f}s (<10s)")


def test_criterion_06_moment_scaling_slope():
    t0 = time.time()
    beta, p = 1.5, 1.0
    spec = NoiseSpec(beta=beta, sigma_rule="power:gamma=2.0", delta=0.5,
                     seed=0)
    ests = moment_scaling_estimate(spec, p, (0.25, 0.5, 1.0, 2.0, 4.0), 10_000,
                                   lmax=8)
    ts = np.log([t for t, _ in ests])
    ys = np.log([m for _, m in ests])
    slope = float(np.polyfit(ts, ys, 1)[0])
    target = p / beta
    elapsed = time.time() - t0
    ok = abs(slope - target) <= 0.05 and elapsed < 60.0
    report(6, ok,
           f"1e4 paths at (beta, p) = ({beta}, {p}): slope {slope:.4f} vs "
           f"{target:.4f} (tol 0.05), {elapsed:.1f}s (<60s)")


def test_criterion_07_ou_moment_bounds():
    t0 = time.time()
    n = 10_000
    # Gaussian case saturates the second-moment identity
    g_spec = NoiseSpec(beta=2.0, sigma_rule="band:l<=4,value=0.3", seed=0)
    ctx = OperatorContext(8, alpha=0.5)
    chk = ou_moment_check(g_spec, ctx, 2.0, 2.0, n, max_kappa_dt=0.01)
    gauss_ratio = chk["empirical"] / chk["bound"]
    gauss_ok = abs(gauss_ratio - 1.0) <= 0.03
    # heavy-tailed case stays below the displayed bound at every horizon
    s_spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0", seed=0)
    stable_ratios = []
    stable_ok = True
    for k, t in enumerate((0.1, 1.0, 10.0)):
        chk = ou_moment_check(s_spec, ctx, 1.0, t, n, counter=k)
        stable_ratios.append(chk["ratio"])
        stable_ok = stable_ok and chk["passed"]
    # a larger damping shift strictly lowers the bound
    bounds = [zlp_bound(1.0, 1.0, s_spec, replace(ctx, alpha=a))
              for a in (0.5, 2.0, 8.0)]
    mono_ok = bounds[0] > bounds[1] > bounds[2]
    elapsed = time.time() - t0
    ok = gauss_ok and stable_ok and mono_ok and elapsed < 120.0
    report(7, ok,
           f"1e4 paths: Gaussian second moment ratio {gauss_ratio:.4f} "
           f"(within 3%); stable ratios "
           f"{'/'.join(f'{r:.3f}' for r in stable_ratios)} (<=1) at "
           f"t=0.1/1/10; damping monotonicity {mono_ok}; "
           f"{elapsed:.1f}s (<120s)")


def test_criterion_08_energy_residual_convergence():
    t0 = time.time()
    rng = np.random.default_rng(4)
    v0 = random_stream_field(12, rng, decay=2.5, norm=1.0)
    ctx = OperatorContext(12, nu=0.5)
    residuals = []
    for dt, nsub in ((0.1, 8), (0.05, 4), (0.025, 2), (0.0125, 1)):
        cfg = SolverConfig(dt=dt, t_end=1.0, scheme="imex_heun", v0=v0)
        spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                         seed=11, n_substeps=nsub)
        residuals.append(abs(energy_residual(run(cfg, spec, ctx=ctx).ledger,
                                             ctx.nu)))
    ratios = [residuals[i] / residuals[i + 1] for i in range(3)]
    shrink_ok = all(r >= 1.7 for r in ratios)
    # noise-free forced run: level-one constants hold along the whole path
    cfg = SolverConfig(dt=0.025, t_end=1.0, scheme="imex_heun", v0=v0,
                       f=unit_stream_mode(12, 3, 1))
    rep = gronwall_bound_report(
        run(cfg, NoiseSpec(beta=2.0), ctx=ctx).ledger, ctx.nu)
    k_ok = bool(rep["satisfied"]["K1"] and rep["satisfied"]["K2"])
    elapsed = time.time() - t0
    ok = shrink_ok and k_ok and elapsed < 60.0
    report(8, ok,
           f"residual shrink per dt halving "
           f"{'/'.join(f'{r:.2f}' for r in ratios)} (each >=1.7); "
           f"noise-free K1/K2 hold: {k_ok}; {elapsed:.1f}s (<60s)")


def _refinement_stats(lmax: int, dt: float, nsub: int) -> tuple:
    rng = np.random.default_rng(4)
    v0 = random_stream_field(12, rng, decay=2.5, norm=1.0)
    if lmax > 12:
        wide = zero_field(lmax)
        wide.coeffs[:v0.coeffs.size] = v0.coeffs   # l-major prefix embeds
        v0 = wide
    cfg = SolverConfig(dt=dt, t_end=0.5, scheme="imex_heun", v0=v0)
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                     seed=11, n_substeps=nsub)
    led = run(cfg, spec, ctx=OperatorContext(lmax, nu=0.5)).ledger
    return led.sup("v_v2"), led.integral("av2")


def test_criterion_09_refinement_stability():
    t0 = time.time()
    base = _refinement_stats(12, 0.01, 2)
    half = _refinement_stats(12, 0.005, 1)    # same substep duration
    wide = _refinement_stats(16, 0.01, 2)
    finite = all(math.isfinite(x) and x > 0 for x in base)
    rel = lambda a, b: abs(a - b) / abs(a)
    d_dt = max(rel(base[0], half[0]), rel(base[1], half[1]))
    d_lmax = max(rel(base[0], wide[0]), rel(base[1], wide[1]))
    elapsed = time.time() - t0
    ok = finite and d_dt < 0.05 and d_lmax < 0.05
    report(9, ok,
           f"sup|v|^2_V and int|Av|^2 finite: {finite}; change under dt "
           f"halving {d_dt*100:.2f}% (<5%), under lmax 12->16 "
           f"{d_lmax*100:.4f}% (<5%); {elapsed:.1f}s")


def test_criterion_10_worker_count_determinism(tmp_path):
    t0 = time.time()
    base = textwrap.dedent("""\
        [run]
        n_paths = 4
        workers = {workers}
        snapshot_every = 2
        [model]
        lmax = 6
        nu = 0.5
        [noise]
        beta = 1.5
        sigma = power:gamma=2.0
        delta = 0.5
        seed = 11
        [time]
        dt = 0.05
        t_end = 0.2
        [initial]
        v0 = random:decay=2.5,norm=1.0,seed=3
    """)
    # both stepping modes run their paths on the same pool
    found = {}
    for mode in ("simulate", "verify-energy"):
        outputs = []
        for workers in (1, 3):
            cfg_path = tmp_path / f"w{workers}.ini"
            cfg_path.write_text(base.format(workers=workers))
            out = str(tmp_path / f"{mode}{workers}")
            code = cli_main([mode, "--config", str(cfg_path),
                             "--output", out])
            assert code == 0
            outputs.append(out)
        names = sorted(os.listdir(outputs[0]))
        identical = names == sorted(os.listdir(outputs[1])) and all(
            Path(outputs[0], n).read_bytes()
            == Path(outputs[1], n).read_bytes()
            for n in names)
        found[mode] = (len(names), identical)
    elapsed = time.time() - t0
    ok = (found["simulate"][0] > 2 and found["verify-energy"][0] == 2
          and all(identical for _, identical in found.values()))
    report(10, ok,
           "4-path ensemble, 1 vs 3 workers: "
           + "; ".join(f"{mode} {n} artifacts byte-identical: {identical}"
                       for mode, (n, identical) in found.items())
           + f"; {elapsed:.1f}s")
