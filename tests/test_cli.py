"""Config parsing, snapshot files, and the five command-line modes."""

import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import snse.cli as cli
from snse.cli import (ConfigError, DIAGNOSTICS_HEADER, build_field,
                      main, parse_config, path_seed, read_snapshot,
                      run_experiment, write_snapshot)
from snse.diagnostics import CHECKS
from snse.harmonics import n_modes, norm_h
from snse.noise import NoiseSpec, _positive_stable_batch
from snse.solver import run

from oracles import run_path


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


MINIMAL = """\
    [model]
    lmax = 4
    [time]
    dt = 0.1
    t_end = 0.3
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL), mode="simulate")
    ctx, spec, solver = cfg.ctx, cfg.spec, cfg.solver
    assert ctx.nu == 1.0 and ctx.omega == 0.0 and ctx.alpha == 0.0
    assert spec.beta == 2.0 and cfg.sigma == "zero" and spec.delta == 0.0
    assert solver.scheme == "imex_heun" and ctx.dealias is True
    assert cfg.n_paths == 1 and cfg.workers == 1 and spec.seed == 0
    assert solver.v0 is None and solver.f is None
    assert cfg.t_list == (0.1, 1.0, 10.0) and cfg.p == 1.0
    assert solver.n_steps == 3
    assert spec == NoiseSpec(beta=2.0, sigma_rule="zero",
                             delta=0.0, seed=0, n_substeps=1)


def test_readme_sample_config_parses_in_every_mode(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = write_cfg(tmp_path, block)
    for mode in cli._MODES:
        assert parse_config(path, mode=mode).mode == mode


def test_mode_specific_sample_defaults(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    assert parse_config(path, mode="verify-noise").n_paths == 100_000
    assert parse_config(path, mode="verify-ou").n_paths == 10_000
    assert parse_config(path, mode="verify-operators").n_paths == 100


def test_command_line_overrides_file(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        mode = simulate
        output_dir = from_file
        [model]
        lmax = 4
        [noise]
        seed = 3
        [time]
        dt = 0.1
        t_end = 0.3
    """)
    cfg = parse_config(path, mode="verify-operators", seed=99,
                       output_dir="from_cli")
    assert cfg.mode == "verify-operators"
    assert cfg.spec.seed == 99
    assert cfg.output_dir == "from_cli"
    cfg = parse_config(path)                    # file values stand alone
    assert (cfg.mode, cfg.spec.seed, cfg.output_dir) == ("simulate", 3,
                                                         "from_file")


def test_first_error_cites_line_number(tmp_path):
    cases = [
        ("[model]\nlmax = eight\n", ":2:", "not a valid int"),
        ("[model]\nlmax = 4\nbogus = 1\n", ":3:", "unknown key"),
        ("[bogus]\nlmax = 4\n", ":1:", "unknown section"),
        ("lmax = 4\n", ":1:", "before any section"),
        ("[model]\nlmax = 4\nlmax = 5\n", ":3:", "duplicate key"),
        ("[model]\nlmax = 4\n[time]\ndt = -0.1\nt_end = 1\n", ":4:",
         "must be positive"),
        ("[model]\nlmax = 4\n[time]\ndt = 0.1\nt_end = 0.25\n", ":5:",
         "integer multiple"),
        ("[model]\nlmax = 4\nnu = 0.0\n[time]\ndt = 0.1\nt_end = 1\n",
         ":3:", "must be positive"),
        ("[model]\nlmax = 4\n[initial]\nv0 = mode:l=9\n[time]\ndt = 0.1\n"
         "t_end = 1\n", ":4:", "outside"),
        ("[model]\nlmax = 4\n[noise]\nsigma = nope:1\n[time]\ndt = 0.1\n"
         "t_end = 1\n", ":4:", "sigma rule"),
    ]
    for text, loc, expect in cases:
        with pytest.raises(ConfigError, match=expect) as err:
            parse_config(write_cfg(tmp_path, text), mode="simulate")
        assert loc in str(err.value), f"missing {loc!r} for {text!r}"


def test_moment_order_must_stay_below_stability_index(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 4
        [noise]
        beta = 1.5
        sigma = power:gamma=2.0
        delta = 0.5
        [verify]
        p = 1.8
    """)
    with pytest.raises(ConfigError, match="p < β required") as err:
        parse_config(path, mode="verify-ou")
    assert ":8:" in str(err.value)              # cites the p line
    # beta = 2 admits any moment order
    path = write_cfg(tmp_path, "[model]\nlmax = 4\n[verify]\np = 7.5\n")
    assert parse_config(path, mode="verify-ou").p == 7.5


def test_only_the_modes_that_read_p_check_it(tmp_path, capsys):
    # p is a [verify] key of verify-noise and verify-ou; at beta <= 1 its
    # default 1 breaks p < beta, which must not stop the other modes
    path = write_cfg(tmp_path, MINIMAL + "[noise]\nbeta = 0.8\n"
                                         "sigma = power:gamma=2.0\n")
    for mode in ("simulate", "verify-energy", "verify-operators"):
        assert parse_config(path, mode=mode).spec.beta == 0.8
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--output", out]) == 0
    assert capsys.readouterr().err == ""
    for mode in ("verify-ou", "verify-noise"):
        assert main([mode, "--config", path]) == 2
        err = capsys.readouterr().err
        assert ":7:" in err and "p = 1 with beta = 0.8" in err, err


def test_dealias_grid_constraint(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 16
        n_lat = 40
        n_lon = 32
        [time]
        dt = 0.1
        t_end = 1
    """)
    with pytest.raises(ConfigError, match="needs ≥ 49") as err:
        parse_config(path, mode="simulate")
    assert ":4:" in str(err.value)
    # a grid that resolves lmax but does not dealias is accepted once
    # dealiasing is off; one that cannot even resolve lmax is not
    relaxed = path.replace("cfg.ini", "relaxed.ini")
    with open(path) as fh:
        body = fh.read().replace("n_lat = 40", "n_lat = 40\ndealias = false")
    with open(relaxed, "w") as fh:
        fh.write(body.replace("n_lon = 32", "n_lon = 40"))
    cfg = parse_config(relaxed, mode="simulate")
    assert cfg.ctx.grid.n_lon == 40 and cfg.ctx.dealias is False
    with open(relaxed, "w") as fh:
        fh.write(body)
    with pytest.raises(ConfigError, match="needs ≥ 33") as err:
        parse_config(relaxed, mode="simulate")
    assert ":5:" in str(err.value)
    # latitude count has its own floor: 2 n_lat - 1 >= 3 lmax
    short = write_cfg(tmp_path, """\
        [model]
        lmax = 16
        n_lat = 20
        n_lon = 49
        [time]
        dt = 0.1
        t_end = 1
    """, name="short.ini")
    with pytest.raises(ConfigError, match="needs ≥ 25"):
        parse_config(short, mode="simulate")


def test_divergent_noise_spectrum_rejected(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 4
        [noise]
        beta = 1.5
        sigma = const:0.05
        [time]
        dt = 0.1
        t_end = 1
    """)
    with pytest.raises(ConfigError, match="summability"):
        parse_config(path, mode="simulate")
    # but a pure operator check never draws noise
    parse_config(path, mode="verify-operators")


def test_missing_required_keys(tmp_path):
    with pytest.raises(ConfigError, match="lmax"):
        parse_config(write_cfg(tmp_path, "[model]\nnu = 1.0\n"),
                     mode="simulate")
    with pytest.raises(ConfigError, match="needs dt"):
        parse_config(write_cfg(tmp_path, "[model]\nlmax = 4\n"),
                     mode="simulate")
    with pytest.raises(ConfigError, match="no mode given"):
        parse_config(write_cfg(tmp_path, MINIMAL))


def test_field_descriptors(tmp_path):
    assert build_field("zero", 6) is None
    f = build_field("mode:l=3,m=2,amp=0.25", 6)
    assert abs(norm_h(f) - 0.25) < 1e-12
    g1 = build_field("random:decay=2.0,norm=1.5,seed=9", 6)
    g2 = build_field("random:decay=2.0,norm=1.5,seed=9", 6)
    assert np.array_equal(g1.coeffs, g2.coeffs)
    assert abs(norm_h(g1) - 1.5) < 1e-12
    for bad in ("modes:l=1", "mode:m=1", "mode:l=x", "random:sigma=1", ""):
        with pytest.raises(ValueError):
            build_field(bad, 6)


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lmax=st.integers(1, 8), spectrum=st.sampled_from(("paper", "ricci_shifted")),
       t=st.floats(allow_nan=False, allow_infinity=False),
       seed=st.integers(0, 2**32 - 1))
def test_snapshot_round_trip_bitwise(tmp_path, lmax, spectrum, t, seed):
    rng = np.random.default_rng(seed)
    nm = n_modes(lmax)
    v = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
    z = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
    v[0] = z[0] = 0.0
    v[1] = complex(-0.0, -0.0)          # signed zeros survive too
    path = str(tmp_path / "state.bin")
    write_snapshot(path, lmax, spectrum, t, v, z)
    back = read_snapshot(path)
    assert back["v"].tobytes() == v.tobytes()
    assert back["z"].tobytes() == z.tobytes()
    assert back["t"] == t
    assert back["lmax"] == lmax and back["spectrum"] == spectrum
    # fixed layout: magic + u32 version + u32 lmax + u8 flag + f64 time,
    # then two coefficient blocks of (n_modes - 1) (re, im) f64 pairs
    assert os.path.getsize(path) == 4 + 17 + 2 * 16 * (nm - 1)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SNS2"


def test_snapshot_rejects_corruption(tmp_path):
    lmax = 3
    nm = n_modes(lmax)
    c = np.zeros(nm, dtype=np.complex128)
    path = str(tmp_path / "state.bin")
    write_snapshot(path, lmax, "paper", 0.0, c, c)
    blob = Path(path).read_bytes()
    bad_magic = str(tmp_path / "bad_magic.bin")
    Path(bad_magic).write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad_magic)
    short = str(tmp_path / "short.bin")
    Path(short).write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(short)
    for n in range(len(blob)):          # a cut anywhere, the header included
        Path(short).write_bytes(blob[:n])
        with pytest.raises(ValueError):
            read_snapshot(short)
    wrong_amp = str(tmp_path / "coeff_shape.bin")
    with pytest.raises(ValueError, match="shape"):
        write_snapshot(wrong_amp, lmax, "paper", 0.0, c[:-1], c)


def test_a_rejected_snapshot_leaves_no_file(tmp_path):
    # a bad z block is found before the header and the v block are written
    lmax = 12
    c = np.zeros(n_modes(lmax), dtype=np.complex128)
    path = tmp_path / "state.bin"
    with pytest.raises(ValueError, match="shape"):
        write_snapshot(str(path), lmax, "paper", 0.0, c, c[:-1])
    assert not path.exists()


def test_an_artifact_write_that_raises_leaves_no_file(tmp_path):
    # each write raises after its first line: neither the final name nor a
    # temporary file is left, and an earlier artifact stays whole
    path = tmp_path / "report.txt"
    with pytest.raises(TypeError):
        cli._write_lines(str(path), ["first line", None])
    assert list(tmp_path.iterdir()) == []
    lmax = 3
    c = np.zeros(n_modes(lmax), dtype=np.complex128)
    unpackable = np.full(n_modes(lmax), "x", dtype=object)
    with pytest.raises(ValueError, match="complex"):  # after header and v
        write_snapshot(str(tmp_path / "s.bin"), lmax, "paper", 0.0, c,
                       unpackable)
    assert list(tmp_path.iterdir()) == []
    cli._write_lines(str(path), ["old"])
    with pytest.raises(TypeError):
        cli._write_lines(str(path), ["new", None])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_path_seed_derivation_is_stable_and_distinct():
    seeds = [path_seed(7, i) for i in range(6)]
    assert len(set(seeds)) == 6
    assert seeds == [path_seed(7, i) for i in range(6)]
    assert path_seed(8, 0) != path_seed(7, 0)


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------

STOCHASTIC_RUN = """\
    [run]
    snapshot_every = 2
    [model]
    lmax = 5
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
"""


def test_simulate_zero_data_writes_zero_rows(tmp_path):
    out = str(tmp_path / "out")
    code = main(["simulate",
                 "--config", write_cfg(tmp_path, MINIMAL),
                 "--output", out])
    assert code == 0
    lines = Path(out, "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 1 + 4                  # t = 0 plus 3 steps
    for k, line in enumerate(lines[1:]):
        vals = [float(x) for x in line.split(",")]
        assert vals[0] == k * 0.1
        assert vals[1:] == [0.0] * 7
    assert os.path.exists(os.path.join(out, "report.txt"))
    assert os.path.exists(os.path.join(out, "path0000_snap0000.bin"))


def test_report_names_the_grids_used(tmp_path):
    # default grids: the 2/3-rule n_lat with the next 5-smooth n_lon;
    # an explicit config grid is reported as given
    base = "[model]\nlmax = 12\n{grid}[time]\ndt = 0.1\nt_end = 0.1\n"
    for grid, want in [
            ("", "grid: product 19 x 40  L4 26 x 50"),
            ("n_lat = 20\nn_lon = 37\n", "grid: product 20 x 37  L4 26 x 50")]:
        path = write_cfg(tmp_path, base.format(grid=grid))
        for mode in ("simulate", "verify-energy", "verify-operators"):
            out = str(tmp_path / f"{mode}{len(grid)}")
            assert main([mode, "--config", path, "--output", out]) == 0
            lines = Path(out, "report.txt").read_text().splitlines()
            assert lines.count(want) == 1, (mode, lines)


def test_simulate_matches_library_run_exactly(tmp_path):
    out = str(tmp_path / "out")
    path = write_cfg(tmp_path, STOCHASTIC_RUN)
    assert main(["simulate", "--config", path, "--output", out]) == 0
    cfg = parse_config(path, mode="simulate")
    res = run_path(cfg.solver, cfg.spec, ctx=cfg.ctx)
    table = res.diagnostic_table()
    lines = Path(out, "diagnostics.csv").read_text().splitlines()
    got = np.array([[float(x) for x in line.split(",")]
                    for line in lines[1:]])
    assert got.shape == table.shape
    assert np.array_equal(got, table)           # repr round-trips exactly
    # endpoint snapshot equals the library final state
    snaps = sorted(f for f in os.listdir(out) if f.endswith(".bin"))
    back = read_snapshot(os.path.join(out, snaps[-1]))
    assert back["t"] == res.state.t
    assert np.array_equal(back["v"], res.state.v.coeffs)
    assert np.array_equal(back["z"], res.state.ou.z.coeffs)


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path):
    path = write_cfg(tmp_path, STOCHASTIC_RUN)
    outs = [str(tmp_path / f"out{i}") for i in range(3)]
    main(["simulate", "--config", path, "--output", outs[0]])
    main(["simulate", "--config", path, "--output", outs[1]])
    main(["simulate", "--config", path, "--output", outs[2], "--seed", "12"])
    read = lambda d: Path(d, "diagnostics.csv").read_bytes()
    assert read(outs[0]) == read(outs[1])
    assert read(outs[0]) != read(outs[2])


def test_ensemble_worker_count_invariance(tmp_path):
    base = STOCHASTIC_RUN.replace("[run]\n", "[run]\nn_paths = 3\n")
    path1 = write_cfg(tmp_path, base, name="w1.ini")
    path2 = write_cfg(tmp_path, base.replace("n_paths = 3",
                                             "n_paths = 3\nworkers = 2"),
                      name="w2.ini")
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert main(["simulate", "--config", path1, "--output", out1]) == 0
    assert main(["simulate", "--config", path2, "--output", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, f"{name} differs between worker counts"
    # three paths, header written once
    lines = Path(out1, "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert sum(line == DIAGNOSTICS_HEADER for line in lines) == 1
    assert len(lines) == 1 + 3 * 5
    assert sum(1 for n in names if n.endswith(".bin")) == 3 * 3


BLOW_UP = """\
    [model]
    lmax = 5
    nu = 0.001
    [time]
    dt = 0.5
    t_end = 5
    scheme = imex_euler
    [initial]
    v0 = random:decay=1.0,norm=1e8,seed=1
"""


def test_blow_up_exit_code_and_partial_artifacts(tmp_path):
    path = write_cfg(tmp_path, BLOW_UP)
    out = str(tmp_path / "out")
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", path, "--output", out])
    assert code == 1
    report = Path(out, "report.txt").read_text()
    assert "BLOW-UP" in report and "FAIL" in report
    lines = Path(out, "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER       # partial table still valid
    for line in lines[1:]:
        assert all(math.isfinite(float(x)) for x in line.split(","))


@pytest.mark.parametrize("scheme", ["imex_euler", "picard"])
@pytest.mark.parametrize("every", [1, 2])
def test_a_failed_path_writes_its_last_good_state_once(tmp_path, scheme,
                                                       every):
    # the last good state ends the snapshots also when the cadence already
    # kept it (imex_euler fails in the step to t = 2, picard in the one to
    # t = 0.5)
    text = BLOW_UP.replace("imex_euler", scheme)
    path = write_cfg(tmp_path, f"[run]\nsnapshot_every = {every}\n" + text)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["simulate", "--config", path, "--output", str(out)]) == 1
    names = sorted(f for f in os.listdir(out) if f.endswith(".bin"))
    times = [read_snapshot(str(out / name))["t"] for name in names]
    assert all(a < b for a, b in zip(times, times[1:])), times
    last_row = (out / "diagnostics.csv").read_text().splitlines()[-1]
    assert times[-1] == float(last_row.split(",")[0])
    report = (out / "report.txt").read_text().splitlines()
    assert f"  snapshots: {', '.join(names)}" in report


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_is_silent(tmp_path, capsys):
    # the overflow near blow-up becomes the blow-up verdict, not a warning
    # on stderr: of a norm in a ledger row, and mid-step, in the products,
    # FFTs and norms of a corrector or a Picard iterate (the six picard
    # paths at seed 2 end ok, NO CONTRACTION and BLOW-UP)
    blow_up = """\
        [model]
        lmax = 8
        nu = 0.001
        [time]
        dt = 0.5
        t_end = 50
        scheme = imex_euler
        [initial]
        v0 = random:decay=0.5,norm=200.0
    """
    mixed = """\
        [run]
        n_paths = 6
        snapshot_every = 5
        [model]
        lmax = 12
        nu = 0.01
        alpha = 0.1
        [noise]
        beta = 1.5
        sigma = power:gamma=1.0
        seed = 2
        [time]
        dt = 0.1
        t_end = 2
        scheme = picard
        [initial]
        v0 = random:decay=1.0,norm=2.0
    """
    for name, text, verdicts in (("blow-up", blow_up, ["BLOW-UP"]),
                                 ("mixed", mixed, ["BLOW-UP", "NO CONTRACTION"])):
        path = write_cfg(tmp_path, text, name=f"{name}.ini")
        out = str(tmp_path / name)
        assert main(["simulate", "--config", path, "--output", out]) == 1
        report = Path(out, "report.txt").read_text()
        assert all(verdict in report for verdict in verdicts)
        assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_at_first_row(tmp_path, capsys):
    # a finite but huge v0 overflows the t = 0 ledger row: a blow-up like
    # any later one, with report.txt and the diagnostics header
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 6
        [time]
        dt = 0.1
        t_end = 0.5
        [initial]
        v0 = mode:l=1,amp=1e308
    """)
    for mode in ("simulate", "verify-energy"):
        out = str(tmp_path / mode)
        assert main([mode, "--config", path, "--output", out]) == 1
        report = Path(out, "report.txt").read_text()
        assert "BLOW-UP at t = 0" in report and "result: FAIL" in report
    csv = Path(tmp_path / "simulate", "diagnostics.csv").read_text()
    assert csv.splitlines() == [DIAGNOSTICS_HEADER]
    # no state passed its ledger row, so none is snapshot
    assert not list(Path(tmp_path / "simulate").glob("*.bin"))
    assert "  snapshots: none" in Path(tmp_path / "simulate", "report.txt").read_text()
    assert capsys.readouterr().err == ""

NON_CONTRACTING = """\
    [model]
    lmax = 8
    nu = 0.01
    alpha = 0.1
    [noise]
    beta = 1.5
    sigma = power:gamma=1.0
    [time]
    dt = 5
    t_end = 10
    scheme = picard
    picard_max_iter = 2
    [initial]
    v0 = random:decay=1.0,norm=5.0
"""


def test_non_contraction_exit_code_and_partial_artifacts(tmp_path):
    path = write_cfg(tmp_path, NON_CONTRACTING)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", path, "--output", out]) == 1
    report = Path(out, "report.txt").read_text()
    assert "[NO CONTRACTION at t = 5]" in report
    assert "result: FAIL (no contraction)" in report
    lines = Path(out, "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER and len(lines) == 2   # t = 0 only
    back = read_snapshot(os.path.join(out, "path0000_snap0000.bin"))
    assert back["t"] == 0.0
    assert np.array_equal(back["v"], build_field("random:decay=1.0,norm=5.0",
                                                 8).coeffs)
    out = str(tmp_path / "energy")
    assert main(["verify-energy", "--config", path, "--output", out]) == 1
    report = Path(out, "report.txt").read_text()
    assert "path0: NO CONTRACTION at t = 5" in report
    assert "result: FAIL" in report


def test_spectrum_reaches_the_solver(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 4
        alpha = 0.1
        spectrum = ricci_shifted
        [noise]
        beta = 1.5
        sigma = power:gamma=2.0
        [time]
        dt = 0.1
        t_end = 0.2
        [initial]
        v0 = mode:l=1
    """)
    cfg = parse_config(path, mode="simulate", output_dir=str(tmp_path / "s"))
    assert cfg.ctx.spectrum == "ricci_shifted"
    assert run_experiment(cfg) == 0
    back = read_snapshot(os.path.join(cfg.output_dir, "path0000_snap0000.bin"))
    assert back["spectrum"] == "ricci_shifted"
    scfg, spec, ctx = cfg.solver, cfg.spec, cfg.ctx
    res = run_path(scfg, spec, ctx=ctx)
    assert np.array_equal(back["v"], res.state.v.coeffs)
    # l = 1 is the zero mode of the shifted spectrum, damped under the paper one
    paper = run_path(scfg, spec, ctx=replace(ctx, spectrum="paper"))
    assert not np.array_equal(back["v"], paper.state.v.coeffs)
    cfg = parse_config(path, mode="verify-energy",
                       output_dir=str(tmp_path / "e"))
    assert run_experiment(cfg) == 0


def test_config_errors_cite_the_offending_line(tmp_path, capsys):
    cases = [
        # passed parsing, then failed the solver's t_end >= dt rule
        ("simulate", "[model]\nlmax = 4\n[time]\ndt = 0.1\n"
                     "t_end = 0.09999999999\n", ":5:", "must be >= dt"),
        # passed parsing, then failed inside the transforms
        ("simulate", "[model]\nlmax = 8\nn_lat = 6\nn_lon = 12\n"
                     "dealias = false\n[time]\ndt = 0.1\nt_end = 0.2\n",
         ":4:", "n_lon = 12 cannot resolve"),
        ("simulate", "[model]\nlmax = 4\nspectrum = ricci_shifted\n[noise]\n"
                     "sigma = power:gamma=2.0\n[time]\ndt = 0.1\nt_end = 0.2\n",
         ":3:", "needs alpha > 0"),
        # [time] values given to a verify mode meet the same rules
        ("verify-ou", "[model]\nlmax = 4\n[time]\ndt = 0.1\nt_end = 0.25\n",
         ":5:", "integer multiple"),
        ("verify-ou", "[model]\nlmax = 4\n[time]\ndt = -1\n", ":4:",
         "dt = -1 must be positive"),
        ("verify-ou", "[model]\nlmax = 4\n[time]\nt_end = -1\n", ":4:",
         "t_end = -1 must be positive"),
    ]
    for mode, text, loc, expect in cases:
        assert main([mode, "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert loc in err and expect in err, (text, err)


def test_a_config_line_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    text = textwrap.dedent(MINIMAL)
    for sep in ("\n", "\r\n", "\r"):            # line ends of text mode
        path = tmp_path / "latin1.ini"
        path.write_bytes((text + "# café\n").replace("\n", sep).encode("latin-1"))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:6: not UTF-8" in err, err
    path.write_text(text + "# café\n", encoding="utf-8")
    assert parse_config(str(path), mode="simulate").solver.n_steps == 3


def test_a_config_file_with_a_byte_order_mark_parses(tmp_path):
    # some editors start a UTF-8 file with the mark U+FEFF
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_bytes(b"[model]\nlmax = 4\n")
    bom.write_bytes(b"\xef\xbb\xbf[model]\nlmax = 4\n")
    assert (cli._read_file(str(bom)) == cli._read_file(str(plain))
            == ({"lmax": 4}, {"lmax": 2}))
    assert parse_config(str(bom), mode="verify-operators").ctx.lmax == 4


def test_config_keys_are_found_by_name(tmp_path):
    # every key name belongs to one section, so the name alone finds its
    # value and the line an error cites
    names = [key for keys in cli._SCHEMA.values() for key in keys]
    assert len(names) == len(set(names))
    values, lines = cli._read_file(write_cfg(tmp_path, MINIMAL))
    assert values == {"lmax": 4, "dt": 0.1, "t_end": 0.3}
    assert lines == {"lmax": 2, "dt": 4, "t_end": 5}


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    for mode in ("simulate", "verify-operators", "verify-noise", "verify-ou",
                 "verify-energy"):
        path = write_cfg(tmp_path, MINIMAL + "[noise]\nseed = -1\n")
        assert main([mode, "--config", path]) == 2
        err = capsys.readouterr().err
        assert ":7:" in err and "seed = -1 must be >= 0" in err, err
        # the command line's value cites no line of the file
        assert main([mode, "--config", path, "--seed", "-2"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: seed = -2 must be >= 0" in err, err


def test_verify_times_must_be_finite(tmp_path, capsys):
    for mode in ("verify-ou", "verify-noise"):
        for t in ("nan", "inf", "0.1,1e400"):
            path = write_cfg(tmp_path, "[model]\nlmax = 4\n[verify]\n"
                                       f"t = {t}\n")
            assert main([mode, "--config", path]) == 2
            err = capsys.readouterr().err
            assert ":4:" in err and "finite positive times" in err, err


def test_verify_noise_needs_two_distinct_times(tmp_path, capsys):
    # the moment slope is a fit over the times: one time fits no line
    for t in ("0.5", "0.5,0.5"):
        path = write_cfg(tmp_path, "[model]\nlmax = 4\n[noise]\n"
                                   "sigma = power:gamma=2.0\n[verify]\n"
                                   f"t = {t}\n")
        assert main(["verify-noise", "--config", path]) == 2
        err = capsys.readouterr().err
        assert ":6:" in err and "two distinct times" in err, err
        # verify-ou checks each time on its own
        assert parse_config(path, mode="verify-ou").t_list == (0.5,) * t.count("0.5")


# ---------------------------------------------------------------------------
# verify modes
# ---------------------------------------------------------------------------

def read_checks(out):
    lines = Path(out, "checks.csv").read_text().splitlines()
    assert lines[0] == "check,lhs,rhs,ratio,input_id"
    rows = {}
    for line in lines[1:]:
        name, lhs, rhs, ratio, input_id = line.split(",")
        rows.setdefault(name, []).append(
            (float(lhs), float(rhs), float(ratio), input_id))
    return rows


def test_verify_operators_mode(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 12
        [model]
        lmax = 8
        omega = 3.0
    """)
    out = str(tmp_path / "out")
    assert main(["verify-operators", "--config", path, "--output", out]) == 0
    rows = read_checks(out)
    for name in ("poincare", "ladyzhenskaya", "b1", "b2", "b5",
                 "coriolis_zero", "b_antisym"):
        assert name in rows
    assert rows["b_antisym"][0][2] < 1e-9
    assert rows["coriolis_zero"][0][2] < 1e-10
    assert rows["poincare"][0][2] <= 1.0 + 1e-12
    assert "result: PASS" in Path(out, "report.txt").read_text()


def test_verify_operators_checks_csv_schema(tmp_path):
    # checks.csv has one writer: header, one row per monitored inequality
    # (then the b-form constants), floats that round-trip exactly
    path = write_cfg(tmp_path, "[run]\nn_paths = 3\n[model]\nlmax = 8\n")
    out = str(tmp_path / "out")
    assert main(["verify-operators", "--config", path, "--output", out]) == 0
    lines = Path(out, "checks.csv").read_text().splitlines()
    assert lines[0] == "check,lhs,rhs,ratio,input_id"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows[:len(CHECKS)]] == list(CHECKS)
    for name, lhs, rhs, ratio, input_id in rows:
        for x in (lhs, rhs, ratio):
            assert repr(float(x)) == x
        if name in CHECKS:
            assert input_id.startswith("s")
        else:
            assert name.startswith("bform_") and input_id == "n=3"


def test_verify_noise_mode_stable_clock(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 30000
        [model]
        lmax = 6
        [noise]
        beta = 1.5
        sigma = power:gamma=2.0
        delta = 0.5
        seed = 11
        [verify]
        p = 1.0
        t = 0.25,1,4
    """)
    out = str(tmp_path / "out")
    assert main(["verify-noise", "--config", path, "--output", out]) == 0
    rows = read_checks(out)
    for r in ("0.5", "1", "2"):
        (emp, exact, ratio, _), = rows[f"laplace_r{r}"]
        assert abs(ratio - 1.0) <= 0.01
        assert exact == pytest.approx(math.exp(-float(r) ** 0.75), rel=1e-12)
    (slope, target, _, _), = rows["moment_slope"]
    assert target == pytest.approx(1.0 / 1.5)
    assert abs(slope - target) <= 0.05


def test_verify_noise_mode_gaussian_clock_exact(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 5000
        [model]
        lmax = 6
        [noise]
        sigma = power:gamma=2.0
        seed = 2
    """)
    out = str(tmp_path / "out")
    assert main(["verify-noise", "--config", path, "--output", out]) == 0
    rows = read_checks(out)
    (worst, _, _, _), = rows["clock_deterministic"]
    assert worst == 0.0                         # exact, not approximate
    assert "moment_slope" in rows


def test_verify_noise_gaussian_admits_moments_beyond_two(tmp_path):
    # p < β binds only stable noise: at beta = 2 every moment is finite
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 5000
        [model]
        lmax = 6
        [noise]
        beta = 2
        sigma = power:gamma=2.0
        seed = 2
        [verify]
        p = 2
    """)
    out = str(tmp_path / "out")
    assert main(["verify-noise", "--config", path, "--output", out]) == 0
    (slope, target, _, _), = read_checks(out)["moment_slope"]
    assert target == 1.0 and abs(slope - target) <= 0.05


SMALL_NOISE = """\
    [run]
    n_paths = {n}
    [model]
    lmax = 8
    [noise]
    beta = 1.5
    sigma = {sigma}
"""


def test_verify_noise_gate_is_sized_by_the_sample(tmp_path):
    # 2000 draws resolve the Laplace transform to about 4%, not to 1%
    path = write_cfg(tmp_path, SMALL_NOISE.format(n=2000, sigma="power:gamma=2.0"))
    for seed in (2, 3):
        out = str(tmp_path / f"out{seed}")
        assert main(["verify-noise", "--config", path, "--seed", str(seed),
                     "--output", out]) == 0


def test_verify_noise_gate_catches_a_wrong_clock_index(tmp_path, monkeypatch):
    # a clock of index 0.6 where beta = 1.5 asks for 0.75 fails at any size
    monkeypatch.setattr(
        "snse.cli._positive_stable_batch",
        lambda index, t, rng, size: _positive_stable_batch(0.8 * index, t, rng, size))
    for n in (2000, 100_000):
        path = write_cfg(tmp_path, SMALL_NOISE.format(n=n, sigma="zero"))
        out = str(tmp_path / f"out{n}")
        assert main(["verify-noise", "--config", path, "--output", out]) == 1
        assert "laplace_r2: FAIL" in Path(out, "report.txt").read_text()


def test_verify_ou_gaussian_constant_at_the_sample_model(tmp_path):
    # beta = 2, p = 1 and the README model: |z|^2 is a chi-square mixture
    # whose p-th moment Jensen bounds with constant 1 (m_1 = 0.80 is too
    # small for 1 + 3 + 5 + ... coordinates)
    path = write_cfg(tmp_path, """\
        [model]
        lmax = 12
        nu = 0.5
        alpha = 0.1
        [noise]
        sigma = power:gamma=2.0
    """)
    for seed in (1, 2, 3):
        out = str(tmp_path / f"out{seed}")
        assert main(["verify-ou", "--config", path, "--seed", str(seed),
                     "--output", out]) == 0


def test_verify_ou_mode(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 2500
        [model]
        lmax = 8
        alpha = 0.5
        [noise]
        beta = 1.5
        sigma = power:gamma=1.0
        seed = 11
        [verify]
        p = 1.0
        t = 0.1,1
    """)
    out = str(tmp_path / "out")
    assert main(["verify-ou", "--config", path, "--output", out]) == 0
    rows = read_checks(out)
    for t in ("0.1", "1"):
        (emp, ceiling, ratio, _), = rows[f"ou_moment_t{t}"]
        assert 0 < emp <= ceiling * 1.05
    (hi, lo, ratio, _), = rows["bound_alpha_monotone"]
    assert hi <= lo


def test_verify_ou_fails_when_one_gate_fails(tmp_path, monkeypatch):
    real = cli.ou_moment_check

    def first_horizon_fails(*args, **kwargs):
        out = real(*args, **kwargs)
        if kwargs["counter"] == 0:
            out["passed"] = False
        return out

    monkeypatch.setattr(cli, "ou_moment_check", first_horizon_fails)
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 200
        [model]
        lmax = 4
        [noise]
        beta = 1.5
        sigma = power:gamma=1.0
        [verify]
        t = 0.1,1
    """)
    out = str(tmp_path / "out")
    assert main(["verify-ou", "--config", path, "--output", out]) == 1
    report = Path(out, "report.txt").read_text().splitlines()
    assert report[-4:] == ["ou_moment_t0.1: FAIL", "ou_moment_t1: PASS",
                           "bound_alpha_monotone: PASS", "result: FAIL"]


OPERATORS_SMALL = "[run]\nn_paths = 3\n[model]\nlmax = 6\n"


def test_verify_operators_fails_when_one_gate_fails(tmp_path, monkeypatch):
    real = cli.inequality_report

    def b1_fails(samples, ctx):
        rep = real(samples, ctx)
        rep["b1"] = dict(rep["b1"], ratio=2.0)
        return rep

    monkeypatch.setattr(cli, "inequality_report", b1_fails)
    out = str(tmp_path / "out")
    assert main(["verify-operators", "--config",
                 write_cfg(tmp_path, OPERATORS_SMALL), "--output", out]) == 1
    report = Path(out, "report.txt").read_text().splitlines()
    gated = [line for line in report if " worst ratio " in line]
    assert [line.split(":")[0] for line in gated] == [
        "b_antisym", "coriolis_zero", "poincare", "ladyzhenskaya", "b1",
        "b2", "b5"]
    assert "b1: worst ratio 2.000e+00  [FAIL]" in gated
    assert sum(line.endswith("[PASS]") for line in gated) == 6
    assert report[-1] == "result: FAIL"


def test_verify_operators_does_not_gate_the_b_form_constants(tmp_path,
                                                             monkeypatch):
    real = cli.b_form_constants
    monkeypatch.setattr(cli, "b_form_constants", lambda samples, ctx: {
        key: 1e300 for key in real(samples, ctx)})
    out = str(tmp_path / "out")
    assert main(["verify-operators", "--config",
                 write_cfg(tmp_path, OPERATORS_SMALL), "--output", out]) == 0
    assert ",1e+300,1.0,1e+300,n=3" in Path(out, "checks.csv").read_text()
    assert Path(out, "report.txt").read_text().endswith("result: PASS\n")


LANE_OU = """\
    [run]
    n_paths = 2000
    [model]
    lmax = 8
    nu = 0.5
    alpha = 0.1
    [noise]
    beta = 1.5
    sigma = power:gamma=2.0
    seed = 4
    [verify]
    t = 0.25,0.05,0.1
"""


def force_lanes(monkeypatch, n):
    """Make the modes see n usable CPUs: verify-ou then runs min(n,
    horizons) lanes, and a simulate path n // (paths at once)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_verify_ou_bytes_do_not_depend_on_the_lane_count(tmp_path,
                                                         monkeypatch):
    # unsorted horizons at 1, 2 and 3 lanes: the longest horizon runs on
    # the calling thread, and every lane on a thread of its own
    path = write_cfg(tmp_path, LANE_OU)
    check = cli.ou_moment_check
    outputs = []
    for lanes in (1, 2, 3):
        force_lanes(monkeypatch, lanes)
        ran_on = {}
        # at 3 lanes each lane holds one check, and they meet here: no
        # helper can finish before the next one has started
        meet = threading.Barrier(3 if lanes == 3 else 1, timeout=60)

        def recording(*args, counter, **kwargs):
            ran_on[counter] = threading.get_ident()
            meet.wait()
            return check(*args, counter=counter, **kwargs)

        monkeypatch.setattr(cli, "ou_moment_check", recording)
        out = tmp_path / f"lanes{lanes}"
        assert main(["verify-ou", "--config", path, "--output",
                     str(out)]) == 0
        assert len(set(ran_on.values())) == lanes
        assert ran_on[0] == threading.get_ident()
        outputs.append([(out / name).read_bytes()
                        for name in ("checks.csv", "report.txt")])
    assert outputs[0] == outputs[1] == outputs[2]
    names = [line.split(",")[0]
             for line in outputs[0][0].decode().splitlines()[1:]]
    assert names == ["ou_moment_t0.25", "ou_moment_t0.05", "ou_moment_t0.1",
                     "bound_alpha_monotone"]


def test_verify_ou_lanes_under_fast_thread_switching(tmp_path, monkeypatch):
    # more lanes than cores and a thread switch every microsecond: each
    # lane fills its own checks, and none is lost or misplaced
    times = ",".join(f"{0.05 * k:g}" for k in (3, 8, 1, 6, 2, 7, 4, 5))
    path = write_cfg(tmp_path, LANE_OU.replace("n_paths = 2000", "n_paths = 200")
                     .replace("t = 0.25,0.05,0.1", f"t = {times}"))
    outputs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for lanes in (1, 8):
            force_lanes(monkeypatch, lanes)
            out = tmp_path / f"lanes{lanes}"
            rc = main(["verify-ou", "--config", path, "--output", str(out)])
            outputs.append((rc, (out / "checks.csv").read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("failing", [0, 1])
def test_verify_ou_lane_failure_reaches_the_caller(tmp_path, monkeypatch,
                                                   failing):
    # at 2 lanes check 0 runs on the calling thread, check 1 on the helper
    force_lanes(monkeypatch, 2)
    boom = RuntimeError("lane failed")
    check = cli.ou_moment_check

    def failing_check(*args, counter, **kwargs):
        if counter == failing:
            raise boom
        return check(*args, counter=counter, **kwargs)

    monkeypatch.setattr(cli, "ou_moment_check", failing_check)
    cfg = parse_config(write_cfg(tmp_path, LANE_OU), mode="verify-ou",
                       output_dir=str(tmp_path / "out"))
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_experiment(cfg)
    assert info.value is boom
    assert threading.active_count() == before


CRASH_CFG = """\
    [run]
    n_paths = 3
    [model]
    lmax = 4
    [noise]
    beta = 1.5
    sigma = power:gamma=2.0
    seed = 6
    [time]
    dt = 0.1
    t_end = 0.3
"""


def crashing_chunks(monkeypatch, crashing_seed):
    """Make cli's chunk runner raise whenever the chunk holds the path of
    crashing_seed; returns the seeds of each chunk run in this process."""
    chunks = []

    def crashing_run(cfg, spec, seeds, **kwargs):
        chunks.append(list(seeds))
        if crashing_seed in seeds:
            raise RuntimeError("lane failed\nin path 1")
        return run(cfg, spec, seeds, **kwargs)

    monkeypatch.setattr(cli, "run", crashing_run)
    return chunks


def crashed_path_keeps_the_other_paths_artifacts(tmp_path, monkeypatch,
                                                 text):
    path = write_cfg(tmp_path, text)
    clean = tmp_path / "clean"
    assert main(["simulate", "--config", path, "--output", str(clean)]) == 0
    chunks = crashing_chunks(monkeypatch, path_seed(6, 1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output", str(out)]) == 1
    report = (out / "report.txt").read_text().splitlines()
    assert "path    1: CRASHED (RuntimeError: lane failed in path 1)" in report
    assert "  snapshots: none" in report
    assert report[-1] == "result: FAIL (crashed)"
    assert sorted(os.listdir(out)) == ["diagnostics.csv",
                                       "path0000_snap0000.bin",
                                       "path0002_snap0000.bin", "report.txt"]
    for name in ("path0000_snap0000.bin", "path0002_snap0000.bin"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()
    rows = (clean / "diagnostics.csv").read_text().splitlines()
    assert (out / "diagnostics.csv").read_text().splitlines() == (
        rows[:5] + rows[9:])
    return chunks


def test_a_crashed_path_keeps_the_other_paths_artifacts(tmp_path,
                                                        monkeypatch):
    # one worker steps the three paths as one chunk, which the crash of
    # path 1 fails: its paths run again one at a time, and only path 1
    # crashes
    chunks = crashed_path_keeps_the_other_paths_artifacts(
        tmp_path, monkeypatch, CRASH_CFG)
    seeds = [path_seed(6, i) for i in range(3)]
    assert chunks == [seeds] + [[seed] for seed in seeds]


def test_a_path_that_crashes_in_a_chunk_of_its_own(tmp_path, monkeypatch):
    # three workers on three CPUs: each path is a chunk of its own
    force_lanes(monkeypatch, 3)
    crashed_path_keeps_the_other_paths_artifacts(
        tmp_path, monkeypatch,
        CRASH_CFG.replace("n_paths = 3", "n_paths = 3\n    workers = 3"))


def test_verify_energy_keeps_the_rows_of_the_paths_that_did_not_crash(
        tmp_path, monkeypatch):
    path = write_cfg(tmp_path, CRASH_CFG)
    clean = tmp_path / "clean"
    assert main(["verify-energy", "--config", path,
                 "--output", str(clean)]) == 0
    crashing_chunks(monkeypatch, path_seed(6, 1))
    out = tmp_path / "out"
    assert main(["verify-energy", "--config", path,
                 "--output", str(out)]) == 1
    assert sorted(os.listdir(out)) == ["checks.csv", "report.txt"]
    report = (out / "report.txt").read_text().splitlines()
    assert "path1: CRASHED (RuntimeError: lane failed in path 1)" in report
    assert report[-1] == "result: FAIL"
    rows = (clean / "checks.csv").read_text().splitlines()
    kept = [row for row in rows if not row.endswith(",path1")]
    assert len(kept) == len(rows) - 5       # K1..K4 and the residual
    assert (out / "checks.csv").read_text().splitlines() == kept


def test_the_pool_holds_no_more_workers_than_paths(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    path = write_cfg(tmp_path, CRASH_CFG.replace(
        "n_paths = 3", "n_paths = 2\n    workers = 3"))
    for mode in ("simulate", "verify-energy"):
        assert main([mode, "--config", path,
                     "--output", str(tmp_path / mode)]) == 0
    assert sizes == [2, 2]


def test_the_pool_holds_no_more_workers_than_usable_cpus(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class Recording:
        """Records the pool size and maps serially: starts no process."""

        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    path = write_cfg(tmp_path, CRASH_CFG.replace(
        "n_paths = 3", "n_paths = 64\n    workers = 64"))
    assert main(["simulate", "--config", path,
                 "--output", str(tmp_path / "out")]) == 0
    assert sizes == [2]


@pytest.mark.filterwarnings("error")
def test_blow_up_is_the_same_at_one_and_two_lanes(tmp_path, monkeypatch):
    # at the band limit where simulate starts its helper: the helper
    # computes B(z) and |u|_L4 near blow-up under the caller's errstate,
    # and the verdict, report and partial artifacts do not move
    from snse.solver import _LANE_MIN_LMAX
    import snse.solver as sol

    path = write_cfg(tmp_path, f"""\
        [run]
        snapshot_every = 1
        [model]
        lmax = {_LANE_MIN_LMAX}
        nu = 0.001
        [noise]
        beta = 1.5
        sigma = power:gamma=2.0
        seed = 3
        [time]
        dt = 0.5
        t_end = 50
        scheme = imex_euler
        [initial]
        v0 = random:decay=0.5,norm=200.0
    """)
    threads = []
    l4_norm = sol.l4_norm

    def recording(u):
        threads.append(threading.get_ident())
        return l4_norm(u)

    monkeypatch.setattr(sol, "l4_norm", recording)
    outputs = []
    for lanes in (1, 2):
        force_lanes(monkeypatch, lanes)
        threads.clear()
        out = tmp_path / f"lanes{lanes}"
        rc = main(["simulate", "--config", path, "--output", str(out)])
        assert len(set(threads) - {threading.get_ident()}) == lanes - 1
        outputs.append((rc, {name: (out / name).read_bytes()
                             for name in sorted(os.listdir(out))}))
    assert outputs[0] == outputs[1]
    rc, files = outputs[0]
    assert rc == 1 and b"BLOW-UP" in files["report.txt"]
    assert len(files) > 3               # snapshots up to the last good state


SHIFTED_OU = """\
    [run]
    n_paths = 2000
    [model]
    lmax = 6
    alpha = {alpha}
    spectrum = ricci_shifted
    [noise]
    beta = 1.5
    sigma = band:l<=4,value={value}
    [time]
    dt = 0.1
    t_end = 0.2
    [verify]
    t = 0.5
"""


def test_verify_ou_uses_the_configured_spectrum(tmp_path, capsys):
    # l = 1 is the zero mode of the shifted spectrum: undamped it does not
    # decay, as simulate already refuses
    path = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0, value=0.5))
    assert main(["verify-ou", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:5:" in err and "needs alpha > 0" in err, err
    undriven = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0, value=0))
    assert main(["verify-ou", "--config", undriven,
                 "--output", str(tmp_path / "undriven")]) == 0
    out = str(tmp_path / "out")
    path = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0.1, value=0.5))
    assert main(["verify-ou", "--config", path, "--output", out]) == 0
    # kappa_1 = alpha under the shifted spectrum, 2 nu + alpha under the
    # paper one: the shifted bound is the larger
    (_, rhs, _, _), = read_checks(out)["ou_moment_t0.5"]
    paper = str(tmp_path / "paper")
    path = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0.1, value=0.5)
                     .replace("ricci_shifted", "paper"))
    assert main(["verify-ou", "--config", path, "--output", paper]) == 0
    (_, rhs_paper, _, _), = read_checks(paper)["ou_moment_t0.5"]
    assert rhs > rhs_paper


def test_negative_amplitudes_drive_the_noise(tmp_path):
    # symmetric noise: sigma_l and -sigma_l give the same law
    checks = []
    for value in (0.5, -0.5):
        out = str(tmp_path / f"out{value}")
        path = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0.1, value=value))
        assert main(["verify-ou", "--config", path, "--output", out]) == 0
        checks.append(Path(out, "checks.csv").read_bytes())
    assert checks[0] == checks[1]


def test_negative_amplitudes_meet_the_decay_gate(tmp_path):
    # a driven zero mode needs damping whatever the sign of its amplitude
    path = write_cfg(tmp_path, SHIFTED_OU.format(alpha=0, value=-0.5))
    assert main(["simulate", "--config", path,
                 "--output", str(tmp_path / "sim")]) == 2


def test_verify_energy_mode(tmp_path):
    path = write_cfg(tmp_path, """\
        [run]
        n_paths = 2
        [model]
        lmax = 6
        nu = 0.5
        [noise]
        sigma = power:gamma=2.0
        seed = 11
        [time]
        dt = 0.05
        t_end = 0.25
        [initial]
        v0 = random:decay=2.5,norm=1.0,seed=3
        f = mode:l=2,m=1,amp=0.1
    """)
    out = str(tmp_path / "out")
    assert main(["verify-energy", "--config", path, "--output", out]) == 0
    rows = read_checks(out)
    for name in ("K1_int_v2_V", "K2_sup_v_h2", "K3_sup_v_v2", "K4_int_av2"):
        assert len(rows[name]) == 2             # one row per path
        for lhs, rhs, ratio, tag in rows[name]:
            assert lhs <= rhs * (1 + 1e-9)
            assert tag in ("path0", "path1")
    assert "energy_residual" in rows
    assert "result: PASS" in Path(out, "report.txt").read_text()


def test_verify_energy_zero_data_trivial(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify-energy",
                 "--config", write_cfg(tmp_path, MINIMAL),
                 "--output", out])
    assert code == 0
    rows = read_checks(out)
    for name in ("K1_int_v2_V", "K2_sup_v_h2", "K3_sup_v_v2", "K4_int_av2"):
        (lhs, rhs, ratio, _), = rows[name]
        assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_exit_codes(tmp_path):
    missing = str(tmp_path / "nonexistent.ini")
    assert main(["simulate", "--config", missing]) == 2
    bad = write_cfg(tmp_path, "[model]\nlmax = 0\n")
    assert main(["simulate", "--config", bad]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", bad])
    assert exc.value.code == 2


def test_output_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--config", write_cfg(tmp_path, MINIMAL),
                 "--output", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(taken) in err, err


def test_console_invocation(tmp_path):
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "snse.cli", "simulate",
         "--config", write_cfg(tmp_path, MINIMAL), "--output", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    proc = subprocess.run(
        [sys.executable, "-m", "snse.cli", "simulate",
         "--config", str(tmp_path / "missing.ini")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
