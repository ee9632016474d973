"""Time stepping: exactness, orders, coupling, determinism, failure modes."""

import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from snse.harmonics import (
    SpectralField,
    gauss_legendre_grid,
    min_grid,
    n_modes,
    norm_h,
    random_stream_field,
    unit_stream_mode,
    zero_field,
)
from snse.noise import NoiseSpec
from snse.operators import OperatorContext, nonlinear_B, trilinear_b
from snse.ou import make_ou_state
from snse.diagnostics import energy_residual, l4_norm, norms
import snse.solver as sol
from snse.solver import (
    _LANE_MIN_LMAX,
    BlowUpError,
    ContractionError,
    SimState,
    SolverConfig,
    effective_force,
    recombine,
    _nonlinear_rhs,
    _v_decay_factor,
)

from oracles import run_path, step_path


def _quiet_spec(**kw):
    base = dict(beta=2.0, sigma_rule="zero", delta=0.5, seed=0, n_substeps=1)
    base.update(kw)
    return NoiseSpec(**base)


def _nonlinear_calls(monkeypatch):
    """Count the solver's N(v, z) evaluations at a non-scalar v; the force
    F = N(0, z) of effective_force is not counted."""
    calls = {"n": 0}
    orig = sol._nonlinear_rhs

    def counting(v_coeffs, *a, **k):
        if not np.isscalar(v_coeffs):
            calls["n"] += 1
        return orig(v_coeffs, *a, **k)

    monkeypatch.setattr(sol, "_nonlinear_rhs", counting)
    return calls


def test_config_validation():
    ok = dict(dt=0.1, t_end=1.0)
    SolverConfig(**ok)
    for bad in (dict(dt=0.0), dict(t_end=0.05), dict(t_end=0.55),
                dict(scheme="leapfrog"), dict(picard_tol=0.0),
                dict(picard_max_iter=0),
                dict(f=SpectralField(6, np.zeros(n_modes(6), complex), "scalar"))):
        with pytest.raises(ValueError):
            SolverConfig(**{**ok, **bad})
    assert SolverConfig(**ok).n_steps == 10
    with pytest.raises(ValueError):
        OperatorContext(6, nu=0.0)
    with pytest.raises(ValueError):
        OperatorContext(6, alpha=-1.0)
    with pytest.raises(ValueError):
        run_path(SolverConfig(**ok, v0=unit_stream_mode(5, 1, 0)), _quiet_spec(),
            ctx=OperatorContext(6))


def test_single_mode_exact_decay():
    # linear part integrated exactly; self-advection of one harmonic vanishes
    spec = _quiet_spec()
    for scheme in ("imex_euler", "imex_heun"):
        for dt in (0.1, 0.05, 0.01):
            cfg = SolverConfig(dt=dt, t_end=1.0, scheme=scheme,
                               v0=unit_stream_mode(8, 1, 0))
            got = math.sqrt(run_path(cfg, spec, ctx=OperatorContext(8, nu=1.0))
                            .ledger.series("v_h2")[-1])
            assert abs(got - math.exp(-2.0)) < 1e-8 * math.exp(-2.0)


def test_zero_data_zero_trajectory():
    res = run_path(SolverConfig(dt=0.1, t_end=0.5), _quiet_spec(),
              ctx=OperatorContext(8))
    assert not res.state.v.coeffs.any()
    assert res.ledger.sup("v_h2") == 0.0
    assert not recombine(res.state).coeffs.any()


def test_effective_force_cases():
    ctx = OperatorContext(8)
    rng = np.random.default_rng(1)
    f = random_stream_field(8, rng, decay=2.0, norm=0.7)
    # z = 0: F is f verbatim
    assert np.array_equal(effective_force(zero_field(8), f,
                                          replace(ctx, alpha=1.5)).coeffs,
                          f.coeffs)
    # single-harmonic z: the quadratic term vanishes, F = alpha z + f
    z = unit_stream_mode(8, 2, 1)
    F = effective_force(z, f, replace(ctx, alpha=0.8))
    np.testing.assert_allclose(F.coeffs, 0.8 * z.coeffs + f.coeffs, atol=1e-14)
    # affine in f
    f2 = random_stream_field(8, rng, decay=2.0, norm=0.4)
    z = random_stream_field(8, rng, decay=2.0, norm=0.5)
    damped = replace(ctx, alpha=0.3)
    both = effective_force(z, SpectralField(8, f.coeffs + f2.coeffs, "stream"),
                           damped).coeffs
    split = (effective_force(z, f, damped).coeffs
             + effective_force(z, f2, damped).coeffs
             - effective_force(z, None, damped).coeffs)
    np.testing.assert_allclose(both, split, atol=1e-13)
    with pytest.raises(ValueError):
        effective_force(z, random_stream_field(6, rng), ctx)


def _endpoint(scheme, dt, v0, f):
    cfg = SolverConfig(dt=dt, t_end=0.5, scheme=scheme, v0=v0, f=f,
                       picard_tol=1e-13)
    ctx = OperatorContext(10, nu=0.5, omega=2.0)
    return run_path(cfg, _quiet_spec(), ctx=ctx).state.v.coeffs


@pytest.fixture(scope="module")
def smooth_data():
    rng = np.random.default_rng(2)
    v0 = random_stream_field(10, rng, decay=2.5, norm=1.0)
    f = random_stream_field(10, rng, decay=3.0, norm=0.5)
    return v0, f


def test_scheme_richardson_orders(smooth_data):
    v0, f = smooth_data
    refs = {s: _endpoint(s, 0.5 / 512, v0, f) for s in ("imex_euler", "imex_heun")}
    orders = {}
    for scheme in ("imex_euler", "imex_heun"):
        errs = [np.linalg.norm(_endpoint(scheme, dt, v0, f) - refs[scheme])
                for dt in (0.05, 0.025, 0.0125)]
        orders[scheme] = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
    assert all(0.8 < o < 1.3 for o in orders["imex_euler"])
    assert all(1.7 < o < 2.3 for o in orders["imex_heun"])


def test_picard_matches_heun_at_second_order(smooth_data):
    v0, f = smooth_data
    d = [np.linalg.norm(_endpoint("picard", dt, v0, f)
                        - _endpoint("imex_heun", dt, v0, f))
         for dt in (0.05, 0.025)]
    assert d[0] < 1e-4
    assert d[0] / d[1] > 3.0  # at least second-order shrink


def test_picard_iteration_geometric_and_consistent(smooth_data):
    v0, _ = smooth_data
    dt, nu, tol = 0.05, 0.5, 1e-13
    ctx = OperatorContext(10, nu=nu)
    st = SimState(t=0.0, v=v0, ou=make_ou_state(ctx, _quiet_spec()))
    E = _v_decay_factor(ctx, dt)
    N_n = _nonlinear_rhs(v0.coeffs, st.ou.z, None, ctx)
    base = E * v0.coeffs + 0.5 * dt * E * N_n
    w = E * (v0.coeffs + dt * N_n)
    diffs, w_fixed = [], None
    for _ in range(50):
        w_new = base + 0.5 * dt * _nonlinear_rhs(w, st.ou.z, None, ctx)
        diffs.append(norms(SpectralField(10, w_new - w, "stream"), ctx)["V"])
        w = w_new
        if diffs[-1] < tol:
            w_fixed = w
            break
    assert w_fixed is not None
    head = [d for d in diffs if d > 1e-11]
    ratios = [head[i + 1] / head[i] for i in range(len(head) - 1)]
    assert all(r < 1.0 for r in ratios)
    assert max(ratios) < 3.0 * min(ratios)  # roughly geometric
    cfg = SolverConfig(dt=dt, t_end=dt, scheme="picard", picard_tol=tol, v0=v0)
    st2, _ = step_path(st, N_n, cfg, _quiet_spec(), ctx=ctx)
    assert np.array_equal(st2.v.coeffs, w_fixed)


def test_picard_linear_problem_single_iteration(monkeypatch):
    # with no quadratic coupling the mild map is constant in its argument:
    # the first corrector application already sits at the fixed point
    ctx = OperatorContext(8)
    st = SimState(t=0.0, v=unit_stream_mode(8, 3, 2),
                  ou=make_ou_state(ctx, _quiet_spec()))
    cfg = SolverConfig(dt=0.05, t_end=0.05, scheme="picard",
                       picard_tol=1e-10, v0=unit_stream_mode(8, 3, 2))
    N = _nonlinear_rhs(st.v.coeffs, st.ou.z, None, ctx)
    calls = _nonlinear_calls(monkeypatch)
    step_path(st, N, cfg, _quiet_spec(), ctx=ctx)
    assert calls["n"] == 1  # the predictor reads N: one corrector application


def test_picard_contraction_failure_raises(smooth_data):
    v0, _ = smooth_data
    big = SpectralField(10, v0.coeffs * 40.0, "stream")
    cfg = SolverConfig(dt=0.5, t_end=0.5, scheme="picard",
                       picard_tol=1e-12, picard_max_iter=8, v0=big)
    ctx = OperatorContext(10)
    st = SimState(t=0.0, v=big, ou=make_ou_state(ctx, _quiet_spec()))
    N = _nonlinear_rhs(big.coeffs, st.ou.z, None, ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises((ContractionError, BlowUpError)):
            step_path(st, N, cfg, _quiet_spec(), ctx=ctx)


def test_monotone_energy_decay_unforced():
    rng = np.random.default_rng(4)
    cfg = SolverConfig(dt=0.02, t_end=1.0, scheme="imex_heun",
                       v0=random_stream_field(10, rng, decay=2.0, norm=0.8))
    h = run_path(cfg, _quiet_spec(), ctx=OperatorContext(10)).ledger.series("v_h2")
    assert np.all(np.diff(h) < 0)


def test_rotation_neutral_on_linear_trajectory():
    # one harmonic: convection vanishes, rotation only spins the phase;
    # every norm of the trajectory is rotation-blind for any dt
    series = {}
    for omega in (0.0, 7.0):
        cfg = SolverConfig(dt=0.1, t_end=1.0, scheme="imex_heun",
                           v0=unit_stream_mode(8, 5, 3))
        series[omega] = run_path(cfg, _quiet_spec(),
                            ctx=OperatorContext(8, omega=omega)
                            ).ledger.series("v_h2")
    assert np.max(np.abs(series[0.0] - series[7.0])) < 1e-13


def test_rotation_decoherence_is_weak_and_vanishes_with_amplitude():
    # nonlinear runs are *not* pathwise rotation-neutral: triad phases
    # detune, but only through the fourth energy moment, so the effect is
    # tiny and dies fast as the amplitude drops
    rng = np.random.default_rng(14)
    shape = random_stream_field(12, rng, decay=2.0, norm=1.0)

    def sup_diff(amp):
        out = {}
        for omega in (0.0, 5.0):
            v0 = SpectralField(12, amp * shape.coeffs, "stream")
            cfg = SolverConfig(dt=0.01, t_end=1.0, scheme="imex_heun", v0=v0)
            out[omega] = run_path(cfg, _quiet_spec(),
                             ctx=OperatorContext(12, omega=omega)
                             ).ledger.series("v_h2")
        return np.max(np.abs(out[0.0] - out[5.0]))

    d_full, d_small = sup_diff(1.0), sup_diff(0.1)
    assert d_full < 1e-5
    assert d_small < 0.01 * d_full


def test_bitwise_reproducibility_and_seed_override():
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                     seed=33, n_substeps=2)
    rng = np.random.default_rng(1)
    cfg = SolverConfig(dt=0.02, t_end=0.3, scheme="imex_heun",
                       v0=random_stream_field(10, rng, decay=2.0, norm=0.8))
    ctx = OperatorContext(10, omega=2.0, alpha=1.0)
    r1, r2 = run_path(cfg, spec, ctx=ctx), run_path(cfg, spec, ctx=ctx)
    assert np.array_equal(r1.state.v.coeffs, r2.state.v.coeffs)
    assert np.array_equal(r1.diagnostic_table(), r2.diagnostic_table())
    r3 = run_path(cfg, replace(spec, seed=99), ctx=ctx)
    assert not np.array_equal(r1.state.v.coeffs, r3.state.v.coeffs)


def test_noise_path_invariant_under_dt_refinement():
    # halving dt while halving n_substeps keeps the substep duration, so
    # the convolution path is reproduced bitwise at the shared times
    rng = np.random.default_rng(3)
    v0 = random_stream_field(10, rng, decay=2.0, norm=0.5)

    def z_snaps(dt, nsub, every):
        spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                         seed=77, n_substeps=nsub)
        cfg = SolverConfig(dt=dt, t_end=0.4, scheme="imex_heun", v0=v0)
        res = run_path(cfg, spec, ctx=OperatorContext(10, omega=2.0, alpha=1.0),
                  snapshot_every=every)
        return {round(t, 10): z for (t, _, z) in res.snapshots}

    za, zb = z_snaps(0.1, 4, 1), z_snaps(0.05, 2, 2)
    times = sorted(za)
    assert times == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert all(np.array_equal(za[t], zb[t]) for t in times)


def test_blow_up_attaches_partial_result():
    rng = np.random.default_rng(1)
    v0 = random_stream_field(10, rng, decay=2.0, norm=0.8)
    cfg = SolverConfig(dt=0.1, t_end=5.0, scheme="imex_euler",
                       v0=SpectralField(10, v0.coeffs * 1e8, "stream"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BlowUpError) as exc:
            run_path(cfg, _quiet_spec(), ctx=OperatorContext(10),
                snapshot_every=1)
    err = exc.value
    assert err.t <= 5.0
    res = err.result
    assert res is not None and res.ledger.n >= 1
    last = res.state                    # the last good state
    assert last.t == res.ledger.series("t")[-1] < err.t
    assert np.all(np.isfinite(last.v.coeffs))
    # the cadence kept every recorded state; the last one is not kept twice
    assert [t for t, _, _ in res.snapshots] == list(res.ledger.series("t"))
    assert np.array_equal(res.snapshots[-1][1], last.v.coeffs)


def test_galerkin_endpoint_cauchy():
    rng = np.random.default_rng(7)
    base24 = random_stream_field(24, rng, decay=2.5, norm=2.5)
    ends = {}
    for lm in (12, 16, 24):
        c = base24.coeffs[: n_modes(lm)].copy()
        cfg = SolverConfig(dt=0.005, t_end=0.5, scheme="imex_heun",
                           v0=SpectralField(lm, c, "stream"))
        res = run_path(cfg, _quiet_spec(), ctx=OperatorContext(lm, nu=0.2))
        ends[lm] = math.sqrt(res.ledger.series("v_h2")[-1])
    d1, d2 = abs(ends[16] - ends[12]), abs(ends[24] - ends[16])
    assert d1 > d2 > 0.0
    assert d1 < 1e-3


def test_perturbation_growth_within_gronwall_factor():
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                     seed=44, n_substeps=2)
    rng = np.random.default_rng(2)
    v0 = random_stream_field(10, rng, decay=2.0, norm=1.0)
    pert = unit_stream_mode(10, 1, 1)
    v0p = SpectralField(10, v0.coeffs + 1e-6 * pert.coeffs, "stream")
    out = {}
    for tag, field in (("base", v0), ("pert", v0p)):
        cfg = SolverConfig(dt=0.01, t_end=0.25, scheme="imex_heun", v0=field)
        out[tag] = run_path(cfg, spec,
                       ctx=OperatorContext(10, omega=1.0, alpha=1.0))
    w0 = norm_h(SpectralField(10, v0p.coeffs - v0.coeffs, "stream"))
    wT = norm_h(SpectralField(10, out["pert"].state.v.coeffs
                              - out["base"].state.v.coeffs, "stream"))
    led = out["base"].ledger
    factor = math.exp(led.integral("z_v2") + led.integral("v_v2"))
    assert 0.0 < wT / w0 <= factor
    assert wT / w0 > 0.3  # perturbation alive: the comparison is nontrivial


def test_energy_residual_second_order_unforced():
    rng = np.random.default_rng(9)
    v0 = random_stream_field(10, rng, decay=2.0, norm=1.0)
    res = []
    for dt in (0.025, 0.0125, 0.00625):
        cfg = SolverConfig(dt=dt, t_end=1.0, scheme="imex_heun", v0=v0)
        res.append(abs(energy_residual(
            run_path(cfg, _quiet_spec(), ctx=OperatorContext(10)).ledger, 1.0)))
    assert 3.0 < res[0] / res[1] < 5.0
    assert 3.0 < res[1] / res[2] < 5.0


def test_ledger_b_vvz_matches_trilinear_oracle(monkeypatch):
    # each row takes b(v,v,z) = (N(v,z), v) - (F, v) from the N the step
    # reads; the independent quadrature of (nabla_v v) . z must agree, on
    # the product grid and on a finer one
    rng = np.random.default_rng(17)
    for lmax in (1, 4, 8, 12):
        n_lat, n_lon = min_grid(lmax, dealias=True)
        for spectrum in ("paper", "ricci_shifted"):
            for grid in (None, gauss_legendre_grid(n_lat + 3, n_lon + 8)):
                ctx = OperatorContext(lmax, nu=0.5, omega=3.0, grid=grid,
                                      spectrum=spectrum, alpha=0.7)
                cfg = SolverConfig(
                    dt=0.05, t_end=0.15,
                    v0=random_stream_field(lmax, rng, decay=1.0, norm=1.0),
                    f=random_stream_field(lmax, rng, decay=1.5, norm=0.5))
                spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0",
                                 delta=0.5, seed=lmax)
                res = run_path(cfg, spec, snapshot_every=1, ctx=ctx)
                led = res.ledger
                assert led.n == len(res.snapshots) == 4
                for k, (_, v, z) in enumerate(res.snapshots):
                    v = SpectralField(lmax, v, "stream")
                    z = SpectralField(lmax, z, "stream")
                    nv, nz = norms(v, ctx), norms(z, ctx)
                    scale = (nv["H"] * nv["V"] * nz["V"]
                             + abs(led.data["f_v"][k]))
                    err = abs(led.data["b_vvz"][k] - trilinear_b(v, v, z, ctx))
                    assert err <= 1e-12 * scale, (lmax, spectrum, k, err)
    # the N of each row is the one the step from its state reads: an
    # n-step Heun run forms N(v, z) once per row and once per corrector,
    # with or without the helper lane
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX, "imex_heun")
    calls = _nonlinear_calls(monkeypatch)
    for lanes in (1, 2):
        calls["n"] = 0
        run_path(cfg, spec, ctx=ctx, lanes=lanes)
        assert calls["n"] == 2 * cfg.n_steps + 1, lanes


def test_energy_residual_converges_on_aliased_grid():
    # below the 2/3 rule the scheme integrates an aliased N; the ledger's
    # b(v,v,z) comes from that N, so the budget still closes at second order
    nu = 0.05
    v0 = random_stream_field(8, np.random.default_rng(3), decay=1.0, norm=2.0)
    ctx = OperatorContext(8, nu=nu, grid=gauss_legendre_grid(9, 17),
                          dealias=False)
    res = []
    for dt in (0.01, 0.005):
        cfg = SolverConfig(dt=dt, t_end=0.5, v0=v0)
        res.append(abs(energy_residual(run_path(cfg, _quiet_spec(), ctx=ctx).ledger,
                                       nu)))
    assert res[0] / res[1] >= 3.0


def test_run_gates():
    cfg, ctx = SolverConfig(dt=0.1, t_end=0.5), OperatorContext(8)
    divergent = NoiseSpec(beta=1.5, sigma_rule="const:0.05", delta=0.5,
                          seed=0, n_substeps=1)
    with pytest.raises(ValueError):
        run_path(cfg, divergent, ctx=ctx)


def test_run_undriven_shifted_spectrum():
    # with no driven mode the Re kappa > 0 gate is moot; the shifted
    # spectrum leaves the lowest band undamped instead of failing
    cfg = SolverConfig(dt=0.1, t_end=0.5, v0=unit_stream_mode(6, 1, 0),
                       scheme="imex_euler")
    ctx = OperatorContext(6, spectrum="ricci_shifted")
    res = run_path(cfg, _quiet_spec(), ctx=ctx)
    h = res.ledger.series("v_h2")
    np.testing.assert_allclose(h, h[0], rtol=1e-12)  # zero eigenvalue: no decay
    driven = NoiseSpec(beta=2.0, sigma_rule="const:0.1", delta=0.0, seed=0,
                       n_substeps=1)
    cfg2 = SolverConfig(dt=0.1, t_end=0.5)
    with pytest.raises(ValueError):
        run_path(cfg2, driven, ctx=ctx)


def test_snapshot_cadence_and_recombine():
    spec = NoiseSpec(beta=2.0, sigma_rule="band:l<=4,value=0.2", delta=0.5,
                     seed=5, n_substeps=1)
    rng = np.random.default_rng(12)
    cfg = SolverConfig(dt=0.05, t_end=0.5, scheme="imex_heun",
                       v0=random_stream_field(8, rng, decay=2.0, norm=0.5))
    res = run_path(cfg, spec, ctx=OperatorContext(8, alpha=0.5), snapshot_every=3)
    times = [t for (t, _, _) in res.snapshots]
    assert times == [k * 0.05 for k in (0, 3, 6, 9, 10)]
    t_last, v_last, z_last = res.snapshots[-1]
    assert np.array_equal(v_last, res.state.v.coeffs)
    u = recombine(res.state)
    assert np.array_equal(u.coeffs, v_last + z_last)
    assert norm_h(u) <= norm_h(res.state.v) + norm_h(res.state.ou.z) + 1e-15
    st = res.state
    assert np.array_equal(recombine(st).coeffs, st.v.coeffs + st.ou.z.coeffs)
    assert res.ledger.series("u_l4")[-1] == l4_norm(recombine(st))


def test_diagnostic_table_layout():
    rng = np.random.default_rng(6)
    cfg = SolverConfig(dt=0.1, t_end=0.5, scheme="imex_heun",
                       v0=random_stream_field(8, rng, decay=2.0, norm=0.7))
    res = run_path(cfg, _quiet_spec(), ctx=OperatorContext(8))
    tab = res.diagnostic_table()
    assert tab.shape == (6, 8)
    assert np.array_equal(tab[:, 0], np.arange(6) * 0.1)
    led = res.ledger
    np.testing.assert_allclose(tab[:, 1], np.sqrt(led.series("v_h2")), rtol=0)
    np.testing.assert_allclose(tab[:, 4], led.series("u_l4"), rtol=0)
    assert tab[0, 5] == 0.0 and tab[0, 6] == 0.0 and tab[0, 7] == 0.0
    assert np.all(np.diff(tab[:, 5]) >= 0)  # running integral of |v|_V^2


def test_energy_residual_below_1e10_at_fine_step():
    # at lmax = 1 the convection term vanishes (rigid rotations are steady),
    # so the only residual source is trapezoidal quadrature of the recorded
    # dissipation series: O(dt^2), comfortably below 1e-10 at dt = 1e-5
    cfg = SolverConfig(dt=1e-5, t_end=0.05, scheme="imex_heun",
                       v0=unit_stream_mode(1, 1, 0))
    ctx = OperatorContext(1, nu=1.0)
    res = run_path(cfg, _quiet_spec(), ctx=ctx)
    assert abs(energy_residual(res.ledger, ctx.nu)) < 1e-10


def test_gronwall_constants_hold_across_ten_seeds():
    from snse.diagnostics import gronwall_bound_report

    rng = np.random.default_rng(4)
    cfg = SolverConfig(dt=0.05, t_end=0.5,
                       v0=random_stream_field(6, rng, decay=2.5, norm=1.0))
    ctx = OperatorContext(6, nu=0.5)
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5)
    worst = 0.0
    for seed in range(10):
        res = run_path(cfg, replace(spec, seed=seed), ctx=ctx)
        rep = gronwall_bound_report(res.ledger, ctx.nu)
        assert all(rep["satisfied"].values()), f"seed {seed}: {rep['satisfied']}"
        worst = max(worst, rep["observed"]["sup_v_h2"] / rep["K2"])
        # a heavy clock jump may saturate the exponential bound to inf;
        # the flag must still read correctly rather than raise
        assert rep["K3"] > 0
    assert worst <= 1.0


def test_gronwall_zero_data_is_trivially_satisfied():
    from snse.diagnostics import gronwall_bound_report

    cfg = SolverConfig(dt=0.1, t_end=0.4)
    ctx = OperatorContext(4)
    rep = gronwall_bound_report(run_path(cfg, _quiet_spec(), ctx=ctx).ledger,
                                ctx.nu)
    assert rep["K1"] == rep["K2"] == rep["K3"] == rep["K4"] == 0.0
    assert all(rep["satisfied"].values())


# ---------------------------------------------------------------------------
# helper lane
# ---------------------------------------------------------------------------

def _lane_case(lmax, scheme):
    rng = np.random.default_rng(8)
    cfg = SolverConfig(dt=0.01, t_end=0.05, scheme=scheme,
                       v0=random_stream_field(lmax, rng, decay=2.5, norm=1.0),
                       f=unit_stream_mode(lmax, 3, 1))
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0", delta=0.5,
                     seed=5, n_substeps=2)
    return cfg, spec, OperatorContext(lmax, nu=0.5, omega=2.0, alpha=0.1)


def _threads_of(monkeypatch, name):
    """Record the thread of every call of the solver's `name`."""
    seen = []
    orig = getattr(sol, name)

    def recording(*args):
        seen.append(threading.get_ident())
        return orig(*args)

    monkeypatch.setattr(sol, name, recording)
    return seen


@pytest.mark.parametrize("scheme", ["imex_euler", "imex_heun", "picard"])
def test_lanes_give_identical_bytes(monkeypatch, scheme):
    # at the band limit where the helper starts: B(z) and |u|_L4 run on
    # the helper at 2 lanes, and every recorded byte stays the same
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX, scheme)
    results = {}
    interval = sys.getswitchinterval()
    for lanes in (1, 2):
        threads = _threads_of(monkeypatch, "l4_norm")
        forces = _threads_of(monkeypatch, "effective_force")
        try:
            sys.setswitchinterval(1e-6)     # a thread switch every microsecond
            results[lanes] = run_path(cfg, spec, ctx=ctx, snapshot_every=2,
                                 lanes=lanes)
        finally:
            sys.setswitchinterval(interval)
        off = {t for t in threads + forces if t != threading.get_ident()}
        assert len(off) == (lanes - 1)
        assert len(threads) == len(forces) == cfg.n_steps + 1
    one, two = results[1], results[2]
    assert one.diagnostic_table().tobytes() == two.diagnostic_table().tobytes()
    assert len(one.snapshots) == len(two.snapshots) == 4
    for a, b in zip(one.snapshots, two.snapshots):
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()
    assert one.state.v.coeffs.tobytes() == two.state.v.coeffs.tobytes()


def test_transforms_on_two_threads_give_the_serial_bytes():
    # the helper runs nonlinear_B(z) and l4_norm beside the calling
    # thread's nonlinear_B; each thread works in its own buffer, so calls on
    # two threads at once return what serial calls return
    ctx = OperatorContext(_LANE_MIN_LMAX)
    rng = np.random.default_rng(23)
    fields = [random_stream_field(ctx.lmax, rng) for _ in range(2)]
    want = [(nonlinear_B(f, ctx).coeffs.tobytes(), l4_norm(f)) for f in fields]
    got = [[], []]

    def rounds(i):
        for _ in range(50):
            got[i].append((nonlinear_B(fields[i], ctx).coeffs.tobytes(),
                           l4_norm(fields[i])))

    threads = [threading.Thread(target=rounds, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert got[i] == [want[i]] * 50


def test_no_helper_below_the_lane_band_limit(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a helper pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    threads = _threads_of(monkeypatch, "l4_norm")
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX - 1, "imex_heun")
    run_path(cfg, spec, ctx=ctx, lanes=2)
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("task", ["l4_norm", "effective_force"])
def test_helper_failure_reaches_the_caller(monkeypatch, task):
    boom = RuntimeError("helper failed")
    orig = getattr(sol, task)
    caller = threading.get_ident()

    def failing(*args):
        if threading.get_ident() != caller:
            raise boom
        return orig(*args)

    monkeypatch.setattr(sol, task, failing)
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX, "imex_heun")
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_path(cfg, spec, ctx=ctx, lanes=2)
    assert info.value is boom
    assert threading.active_count() == before


def test_helper_tasks_run_under_the_callers_errstate(monkeypatch):
    # numpy's errstate is per thread context; a helper task takes the one
    # of the call that started it: the caller's, with run's overflow
    # silence around its step loop
    states = {}
    for task in ("l4_norm", "effective_force"):
        orig = getattr(sol, task)

        def recording(*args, task=task, orig=orig):
            states.setdefault(task, []).append(
                (threading.get_ident(), np.geterr()))
            return orig(*args)

        monkeypatch.setattr(sol, task, recording)
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX, "imex_euler")
    with np.errstate(all="raise", under="ignore"):
        run_path(cfg, spec, ctx=ctx, lanes=2)
    caller = threading.get_ident()
    silenced = dict(divide="raise", over="ignore", under="ignore",
                    invalid="ignore")
    assert all(err == silenced for _, err in states["l4_norm"])
    assert all(err == silenced for _, err in states["effective_force"])
    assert any(t != caller for t, _ in states["l4_norm"])
    assert any(t != caller for t, _ in states["effective_force"])


# ---------------------------------------------------------------------------
# lockstep chunks
# ---------------------------------------------------------------------------

def _assert_same_path(a, b):
    """Two SimResults of one path agree bit for bit: ledger rows,
    snapshots, last good state, status and failure time."""
    assert a.ledger.data.keys() == b.ledger.data.keys()
    for name, series in a.ledger.data.items():
        other = b.ledger.data[name]
        assert np.array(series).tobytes() == np.array(other).tobytes()
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, va, za), (tb, vb, zb) in zip(a.snapshots, b.snapshots):
        assert ta == tb and va.tobytes() == vb.tobytes()
        assert za.tobytes() == zb.tobytes()
    assert a.state.t == b.state.t
    assert a.state.v.coeffs.tobytes() == b.state.v.coeffs.tobytes()
    assert a.state.ou.z.coeffs.tobytes() == b.state.ou.z.coeffs.tobytes()
    assert type(a.failure) is type(b.failure)
    if a.failure is not None:
        assert a.failure.t == b.failure.t and a.failure.result is a


def test_a_chunk_gives_each_path_the_bytes_it_gets_alone():
    # eight picard paths in one chunk: they end ok, BLOW-UP mid-run and NO
    # CONTRACTION, each at its own step (here seed 3 blows up at t = 0.8,
    # seeds 0, 4 and 5 stop contracting at t = 1, 0.4 and 0.3); a failed
    # path leaves the stack and a converged one stops iterating, so every
    # path gets its bytes alone
    ctx = OperatorContext(12, nu=0.01, alpha=0.1)
    cfg = SolverConfig(dt=0.1, t_end=1.0, scheme="picard",
                       v0=random_stream_field(12, np.random.default_rng(0),
                                              decay=1.0, norm=2.0))
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=1.0")
    seeds = list(range(8))
    with np.errstate(all="ignore"):
        chunk = sol.run(cfg, spec, seeds, ctx=ctx, snapshot_every=3)
        alone = [sol.run(cfg, spec, [seed], ctx=ctx, snapshot_every=3)[0]
                 for seed in seeds]
    assert {type(r.failure) for r in chunk} == {type(None), BlowUpError,
                                                ContractionError}
    blown = [i for i, r in enumerate(chunk)
             if isinstance(r.failure, BlowUpError) and r.failure.t > cfg.dt]
    assert blown
    for a, b in zip(chunk, alone):
        _assert_same_path(a, b)
    with pytest.raises(BlowUpError) as info, np.errstate(all="ignore"):
        run_path(cfg, replace(spec, seed=blown[0]), ctx=ctx,
                 snapshot_every=3)
    _assert_same_path(info.value.result, chunk[blown[0]])


def test_a_chunk_on_the_helper_lane_gives_each_path_its_bytes(monkeypatch):
    # a chunk of two at the band limit where the helper starts: the helper
    # forms the stacked F(z) and |u|_L4, and each path keeps the bytes it
    # gets alone on one lane
    cfg, spec, ctx = _lane_case(_LANE_MIN_LMAX, "picard")
    seeds = [spec.seed, 6]
    alone = [sol.run(cfg, spec, [seed], ctx=ctx, snapshot_every=2)[0]
             for seed in seeds]
    stacks = []
    for name in ("l4_norm", "effective_force"):
        orig = getattr(sol, name)

        def recording(field, *args, orig=orig):
            stacks.append((threading.get_ident(), field.coeffs.shape[0]))
            return orig(field, *args)

        monkeypatch.setattr(sol, name, recording)
    chunk = sol.run(cfg, spec, seeds, ctx=ctx, snapshot_every=2, lanes=2)
    assert len(stacks) == 2 * (cfg.n_steps + 1)
    assert {n for _, n in stacks} == {2}
    assert {t for t, _ in stacks} - {threading.get_ident()}
    for a, b in zip(chunk, alone):
        _assert_same_path(a, b)


@pytest.mark.parametrize("scheme", ["imex_euler", "imex_heun", "picard"])
def test_a_non_finite_z_ends_its_path_at_its_ledger_row(monkeypatch, scheme):
    # no stochastic config reaches a z that overflows while v stays
    # finite, so ou_step is made to return a non-finite z for one path of
    # a chunk of three at step k: the stepper carries it on, and run ends
    # the path as BLOW-UP at the ledger row of t = k dt, whatever the
    # scheme makes of v; its last good state is the one of step k - 1, and
    # the other paths keep the bytes they get alone
    ctx = OperatorContext(8, nu=0.1, alpha=0.1)
    cfg = SolverConfig(dt=0.1, t_end=0.5, scheme=scheme,
                       v0=random_stream_field(8, np.random.default_rng(2)))
    spec = NoiseSpec(beta=1.5, sigma_rule="power:gamma=2.0")
    seeds, bad, k = [0, 1, 2], 1, 3
    alone = [sol.run(cfg, spec, [seed], ctx=ctx, snapshot_every=1)[0]
             for seed in seeds]
    orig, calls = sol.ou_step, []

    def overflowing(state, dt, spec, streams, factors):
        out = orig(state, dt, spec, streams, factors)
        calls.append(list(streams.seeds))
        if len(calls) == k:
            out.z.coeffs[streams.seeds.index(bad), 1] = np.inf
        return out

    monkeypatch.setattr(sol, "ou_step", overflowing)
    chunk = sol.run(cfg, spec, seeds, ctx=ctx, snapshot_every=1)
    assert calls[k - 1] == seeds and calls[k] == [0, 2]
    res = chunk[bad]
    assert isinstance(res.failure, BlowUpError)
    assert res.failure.t == k * cfg.dt and res.failure.result is res
    assert res.state.t == res.snapshots[-1][0] == (k - 1) * cfg.dt
    assert list(res.ledger.series("t")) == [j * cfg.dt for j in range(k)]
    assert res.snapshots[-1][1].tobytes() == res.state.v.coeffs.tobytes()
    assert res.snapshots[-1][2].tobytes() == res.state.ou.z.coeffs.tobytes()
    # up to its last good state the path is its run alone
    ref = alone[bad]
    for name, series in res.ledger.data.items():
        assert (np.array(series).tobytes()
                == np.array(ref.ledger.data[name][:k]).tobytes())
    for (ta, va, za), (tb, vb, zb) in zip(res.snapshots, ref.snapshots):
        assert ta == tb and va.tobytes() == vb.tobytes()
        assert za.tobytes() == zb.tobytes()
    for i in (0, 2):
        assert chunk[i].failure is None
        _assert_same_path(chunk[i], alone[i])
