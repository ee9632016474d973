"""Command-line front end: config files, experiment modes, artifact files.

A run is described by an INI-style config (sections [run], [model],
[noise], [time], [initial], [verify]).  Parsing is strict: the first
unknown key, type error, or violated constraint aborts with a message
citing the offending line.  Five modes share the entry point:

    snse <mode> --config <path> [--seed N] [--output DIR]

simulate          integrate the split system, write diagnostics.csv,
                  binary state snapshots, and report.txt; a path with a
                  CPU to spare at lmax >= 48 uses a helper thread
verify-operators  worst-case inequality ratios on random fields -> checks.csv
verify-noise      subordinator Laplace transform and moment-scaling slope
verify-ou         stochastic-convolution moment bounds at the configured times,
                  one lane (thread) per usable CPU
verify-energy     a-priori energy constants K1..K4 against a recorded run

Exit status: 0 on success, 1 on blow-up or a failed check, 2 on a config
error.  All artifacts are written deterministically (no timestamps; float
formatting via repr round-trips), so identical configs produce identical
bytes regardless of worker or lane count.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (b_form_constants, energy_residual,
                          gronwall_bound_report, inequality_report, l4_grid)
from .harmonics import (ParameterError, SpectralField, gauss_legendre_grid,
                        n_modes, random_stream_field, unit_stream_mode)
from .noise import (NoiseSpec, PURPOSE_MC, PURPOSE_PATH, _positive_stable_batch,
                    check_moment_order, check_summability,
                    levy_increment_block, moment_scaling_estimate, substream)
from .operators import OperatorContext
from .ou import ou_moment_check, zlp_bound
from .solver import (DIAGNOSTIC_COLUMNS, SolverConfig, StepFailure,
                     _initial_ou, run)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "build_field",
    "write_snapshot",
    "read_snapshot",
    "path_seed",
    "run_experiment",
    "main",
]

MODES = ("simulate", "verify-operators", "verify-noise", "verify-ou",
         "verify-energy")
_STEPPING_MODES = ("simulate", "verify-energy")

DIAGNOSTICS_HEADER = ",".join(DIAGNOSTIC_COLUMNS)

SNAPSHOT_MAGIC = b"SNS2"
SNAPSHOT_VERSION = 1
_FLAG_OF_SPECTRUM = {"paper": 0, "ricci_shifted": 1}
_SPECTRUM_OF_FLAG = {v: k for k, v in _FLAG_OF_SPECTRUM.items()}

# sample counts when [run] n_paths is not set, per mode
_DEFAULT_PATHS = {
    "simulate": 1,
    "verify-operators": 100,
    "verify-noise": 100_000,
    "verify-ou": 10_000,
    "verify-energy": 1,
}


class ConfigError(ValueError):
    """Config-file rejection; the message carries path:line context."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# section -> key -> type tag
_SCHEMA = {
    "run": {"mode": "str", "output_dir": "str", "snapshot_every": "int",
            "n_paths": "int", "workers": "int"},
    "model": {"lmax": "int", "nu": "float", "omega": "float",
              "alpha": "float", "spectrum": "str", "n_lat": "int",
              "n_lon": "int", "dealias": "bool"},
    "noise": {"beta": "float", "sigma": "str", "delta": "float",
              "n_substeps": "int", "seed": "int"},
    "time": {"dt": "float", "t_end": "float", "scheme": "str",
             "picard_tol": "float", "picard_max_iter": "int"},
    "initial": {"v0": "str", "f": "str"},
    "verify": {"p": "float", "t": "str"},
}

# every key name is unique across sections
_CONFIG_KEY = {key: (section, key)
               for section, keys in _SCHEMA.items() for key in keys}
# constructor parameter -> config key, where the names differ
_KEY_OF_PARAM = {"sigma_rule": "sigma"}
# the line an error cites when its own key is absent from the file: the
# partner key, the key that stood in for it, or the setting it depends on
_FALLBACK = {"n_lat": "n_lon", "dt": "t_end", "t_end": "dt",
             "alpha": "spectrum", "p": "beta", "sigma": "delta"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (one mode, one model): the
    objects that validated [model] (ctx), [noise] (spec) and [time] and
    [initial] (solver, None in the verify modes, which never step), the run
    and verify values, and the [noise] sigma text that report.txt prints."""

    mode: str
    output_dir: str
    snapshot_every: int
    n_paths: int
    workers: int
    ctx: OperatorContext
    spec: NoiseSpec
    solver: SolverConfig | None
    sigma: str
    p: float
    t_list: tuple

    @property
    def lmax(self) -> int:              # kept because bench/ reads it
        return self.ctx.lmax

    def operator_context(self) -> OperatorContext:  # kept because bench/ calls it
        return self.ctx


def _kv_opts(rest: str, casts: dict, origin: str) -> dict:
    opts = {}
    if rest.strip() == "":
        return opts
    for part in rest.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        if not eq or key not in casts:
            raise ValueError(f"field descriptor {origin!r}: "
                             f"bad option {part.strip()!r}")
        try:
            opts[key] = casts[key](raw.strip())
            if not math.isfinite(opts[key]):
                raise ValueError
        except ValueError:
            raise ValueError(f"field descriptor {origin!r}: "
                             f"bad value for {key!r}") from None
    return opts


def build_field(descriptor: str, lmax: int) -> SpectralField | None:
    """Materialize an initial-data descriptor; 'zero' maps to None.

    Grammar:  zero | mode:l=L[,m=M][,amp=A] | random:decay=D,norm=N,seed=S
    (random's parts are each optional).  A malformed descriptor, or a mode
    outside the band limit, raises ParameterError naming "descriptor".
    """
    body = descriptor.strip()
    head, _, rest = body.partition(":")
    try:
        if body == "zero":
            return None
        if head == "mode":
            opts = _kv_opts(rest, {"l": int, "m": int, "amp": float}, body)
            if "l" not in opts:
                raise ValueError(f"field descriptor {body!r} needs l=<degree>")
            field = unit_stream_mode(lmax, opts["l"], opts.get("m", 0))
            field.coeffs *= opts.get("amp", 1.0)
            return field
        if head == "random":
            opts = _kv_opts(rest, {"decay": float, "norm": float, "seed": int},
                            body)
            return random_stream_field(
                lmax, np.random.default_rng(opts.get("seed", 0)),
                decay=opts.get("decay", 2.0), norm=opts.get("norm", 1.0))
        raise ValueError(f"field descriptor {body!r} must be 'zero', "
                         "'mode:l=..[,m=..][,amp=..]' or "
                         "'random:[decay=..][,norm=..][,seed=..]'")
    except ValueError as err:
        raise ParameterError("descriptor", str(err)) from None


def _coerce(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ValueError(raw)
    return raw


def _read_file(path: str) -> tuple[dict, dict]:
    """Strict line-by-line parse to (values, line numbers), both keyed
    by (section, key).  Raises ConfigError on the first bad line."""
    values: dict = {}
    lines: dict = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#") or text.startswith(";"):
            continue
        where = f"{path}:{lineno}"
        if text.startswith("["):
            if not text.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {text!r}")
            section = text[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"{where}: unknown section [{section}] "
                    f"(expected one of {', '.join(sorted(_SCHEMA))})")
            continue
        key, eq, raw_value = text.partition("=")
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        if section is None:
            raise ConfigError(f"{where}: key {key.strip()!r} appears before "
                              "any section header")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{where}: unknown key {key!r} in "
                              f"section [{section}]")
        if (section, key) in values:
            first = lines[(section, key)]
            raise ConfigError(f"{where}: duplicate key {key!r} "
                              f"(first set on line {first})")
        kind = _SCHEMA[section][key]
        try:
            value = _coerce(kind, raw_value)
        except ValueError:
            raise ConfigError(f"{where}: value {raw_value!r} for {key!r} "
                              f"is not a valid {kind}") from None
        values[(section, key)] = value
        lines[(section, key)] = lineno
    return values, lines


def parse_config(path: str, *, mode: str | None = None,
                 seed: int | None = None,
                 output_dir: str | None = None) -> ExperimentConfig:
    """Read and fully validate a config file.

    mode/seed/output_dir given here (from the command line) override the
    corresponding file keys.  Raises ConfigError with path:line on the
    first problem found.  Each model, noise, time and initial-data value is
    judged by the constructor that owns it (OperatorContext, NoiseSpec,
    SolverConfig, build_field); this function checks only what no domain
    object holds.
    """
    values, lines = _read_file(path)
    if seed is not None:                # an error in it cites no file line
        values[("noise", "seed")] = seed
        lines.pop(("noise", "seed"), None)

    def get(section, key, default=None):
        return values.get((section, key), default)

    def given(section, *keys):
        """The keys set in the file; the owner's default stands for the rest."""
        return {key: values[section, key] for key in keys
                if (section, key) in values}

    def fail(key, message):
        """Raise citing the key's line, or its stand-in's when absent."""
        for k in (key, _FALLBACK.get(key)):
            if _CONFIG_KEY.get(k) in lines:
                raise ConfigError(f"{path}:{lines[_CONFIG_KEY[k]]}: {message}")
        raise ConfigError(f"{path}: {message}")

    mode = mode if mode is not None else get("run", "mode")
    if mode is None:
        raise ConfigError(f"{path}: no mode given (command line or [run] mode)")
    if mode not in MODES:
        fail("mode", f"unknown mode {mode!r} (expected one of {', '.join(MODES)})")
    lmax = get("model", "lmax")
    if lmax is None:
        raise ConfigError(f"{path}: missing required key lmax in [model]")
    n_lat, n_lon = get("model", "n_lat"), get("model", "n_lon")
    dt, t_end = get("time", "dt"), get("time", "t_end")
    sigma, p = get("noise", "sigma", "zero"), get("verify", "p", 1.0)
    t_raw = get("verify", "t", "0.1,1,10")
    try:
        t_list = tuple(float(part) for part in t_raw.split(","))
    except ValueError:
        t_list = None

    # values are judged section by section ([model], [noise], [time],
    # [initial]) by their owners.  The verify modes never step: a [time]
    # value they are given meets the rules of a probe SolverConfig, dropped
    # after, in which the missing value stands in as a single step that only
    # the given value's rules can fail
    probe_dt = dt if dt is not None else abs(t_end or 1.0)
    probe_t_end = t_end if t_end is not None else probe_dt
    try:
        grid = (gauss_legendre_grid(n_lat, n_lon)
                if None not in (n_lat, n_lon) else None)
        ctx = OperatorContext(lmax, grid=grid, **given(
            "model", "nu", "omega", "dealias", "spectrum", "alpha"))
        if (n_lat is None) != (n_lon is None):
            fail("n_lat", "n_lat and n_lon must be given together")
        spec = NoiseSpec(beta=get("noise", "beta", 2.0), sigma_rule=sigma,
                         **given("noise", "delta", "seed", "n_substeps"))
        for key, value in (("dt", dt), ("t_end", t_end)):
            if mode in _STEPPING_MODES and value is None:
                raise ConfigError(f"{path}: mode {mode} needs {key} in [time]")
        fields = {}
        for key in ("v0", "f"):
            try:
                fields[key] = build_field(get("initial", key, "zero"), lmax)
            except ParameterError as err:
                raise ParameterError(key, str(err)) from None
        solver = SolverConfig(dt=probe_dt, t_end=probe_t_end, **fields, **given(
            "time", "scheme", "picard_tol", "picard_max_iter"))
        if mode in _STEPPING_MODES + ("verify-ou",):
            _initial_ou(ctx, spec)
        check_moment_order(p, spec.beta)
    except ParameterError as err:
        fail(_KEY_OF_PARAM.get(err.param, err.param), str(err))

    cfg = ExperimentConfig(
        mode=mode,
        output_dir=(output_dir if output_dir is not None
                    else get("run", "output_dir", ".")),
        snapshot_every=get("run", "snapshot_every", 0),
        n_paths=get("run", "n_paths", _DEFAULT_PATHS[mode]),
        workers=get("run", "workers", 1),
        ctx=ctx, spec=spec,
        solver=solver if mode in _STEPPING_MODES else None,
        sigma=sigma, p=p, t_list=t_list)

    if not t_list or not all(0 < tv < math.inf for tv in t_list):
        fail("t", f"t = {t_raw!r} must be a comma-separated list of "
                  "finite positive times")
    for key, least in (("snapshot_every", 0), ("n_paths", 1), ("workers", 1)):
        if getattr(cfg, key) < least:
            fail(key, f"{key} must be >= {least}")
    if mode == "verify-noise" and len(set(t_list)) < 2:
        fail("t", f"t = {t_raw!r} must hold two distinct times for the "
                  "verify-noise moment slope")

    if mode != "verify-operators" and not check_summability(spec)["converged"]:
        fail("sigma", f"noise spectrum fails the summability check at "
                      f"delta = {spec.delta:g}")
    return cfg


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------

def write_snapshot(path: str, lmax: int, spectrum: str, t: float,
                   v_coeffs: np.ndarray, z_coeffs: np.ndarray) -> None:
    """Binary state snapshot, little-endian throughout.

    Layout: magic 'SNS2', u32 version, u32 lmax, u8 spectrum flag,
    f64 time, then the v coefficients followed by the z coefficients as
    f64 (re, im) pairs in l-major order, l = 1..lmax, m = 0..l (the
    constant l = 0 slot is identically zero and not stored).
    """
    nm = n_modes(lmax)
    flag = _FLAG_OF_SPECTRUM[spectrum]
    for coeffs in (v_coeffs, z_coeffs):     # before the file exists
        if coeffs.shape != (nm,):
            raise ValueError(f"coefficient block must have shape ({nm},)")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIBd", SNAPSHOT_VERSION, lmax, flag, float(t)))
        for coeffs in (v_coeffs, z_coeffs):
            fh.write(coeffs[1:].astype("<c16").tobytes())


def read_snapshot(path: str) -> dict:
    """Inverse of write_snapshot; returns full-length coefficient arrays
    (the l = 0 slot restored as zero)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic)")
    offset = 4 + struct.calcsize("<IIBd")
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated snapshot header ({len(blob)} bytes)")
    version, lmax, flag, t = struct.unpack_from("<IIBd", blob, 4)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if flag not in _SPECTRUM_OF_FLAG:
        raise ValueError(f"{path}: unknown spectrum flag {flag}")
    nm = n_modes(lmax)
    expect = offset + 2 * 16 * (nm - 1)
    if len(blob) != expect:
        raise ValueError(f"{path}: truncated snapshot "
                         f"({len(blob)} bytes, expected {expect})")
    out = {}
    for name in ("v", "z"):
        coeffs = np.zeros(nm, dtype=np.complex128)
        coeffs[1:] = np.frombuffer(blob, dtype="<c16", count=nm - 1,
                                   offset=offset)
        offset += 16 * (nm - 1)
        out[name] = coeffs
    out.update(lmax=lmax, spectrum=_SPECTRUM_OF_FLAG[flag], t=t)
    return out


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return repr(float(x))


def path_seed(seed: int, index: int) -> int:
    """Independent per-path seed: path index enters through the spawn key,
    so paths never share substreams with each other or with MC helpers."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(PURPOSE_PATH, int(index)))
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_report(cfg: ExperimentConfig, lines: list) -> None:
    ctx, spec = cfg.ctx, cfg.spec
    head = [f"mode: {cfg.mode}",
            f"model: lmax={ctx.lmax} nu={ctx.nu:g} omega={ctx.omega:g} "
            f"alpha={ctx.alpha:g} spectrum={ctx.spectrum}",
            f"noise: beta={spec.beta:g} sigma={cfg.sigma} "
            f"delta={spec.delta:g} n_substeps={spec.n_substeps} "
            f"seed={spec.seed}",
            ""]
    _write_lines(os.path.join(cfg.output_dir, "report.txt"), head + lines)


def _grid_line(ctx: OperatorContext) -> str:
    """The grids a run transforms on: products on ctx.grid, |u|_L4 on its own."""
    g, l4 = ctx.grid, l4_grid(ctx.lmax)
    return (f"grid: product {g.n_lat} x {g.n_lon}  "
            f"L4 {l4.n_lat} x {l4.n_lon}")


def _finish(cfg: ExperimentConfig, rows: list, lines: list, ok: bool) -> int:
    """Tail of every verify mode: checks.csv from rows, (check, lhs, rhs,
    ratio, input_id) tuples, then report.txt from lines and the verdict;
    returns the exit status."""
    csv = ["check,lhs,rhs,ratio,input_id"]
    csv += [f"{name},{_fmt(lhs)},{_fmt(rhs)},{_fmt(ratio)},{input_id}"
            for name, lhs, rhs, ratio, input_id in rows]
    _write_lines(os.path.join(cfg.output_dir, "checks.csv"), csv)
    _write_report(cfg, lines + ["result: " + ("PASS" if ok else "FAIL")])
    return 0 if ok else 1


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_path_task(payload: tuple) -> dict:
    """One sample path of a stepping mode, executable in a worker process.

    Returns the path's ledger and status, and with an output directory its
    diagnostics.csv lines, pre-formatted so the parent's concatenation is
    byte-identical no matter where the path ran, and its snapshot files.
    An exception other than a StepFailure fails this path only: it is
    reported as CRASHED, with no ledger, rows or snapshots, and the other
    paths keep their artifacts.
    """
    scfg, spec, ctx, snapshot_every, outdir, index, lanes = payload
    out = {"index": index, "failure": None, "status": "ok", "ledger": None,
           "lines": [], "snapshots": []}
    try:
        res = run(scfg, spec, ctx=ctx, snapshot_every=snapshot_every,
                  lanes=lanes)
    except StepFailure as err:
        res, out["failure"] = err.result, err.status
        out["status"] = f"{err.status} at t = {err.t:g}"
    except Exception as err:            # a defect of this path only
        import traceback                # only a crash needs it
        print(f"path {index} crashed:", file=sys.stderr)
        traceback.print_exc()
        message = " ".join(str(err).splitlines())
        out.update(failure="CRASHED",
                   status=f"CRASHED ({type(err).__name__}: {message})")
        return out
    out["ledger"] = res.ledger
    if outdir is None:                  # verify-energy reads the ledger only
        return out
    out["lines"] = [",".join(_fmt(x) for x in row)
                    for row in res.diagnostic_table()]
    snaps = res.snapshots
    if not snaps:                       # endpoint only (snapshot_every = 0)
        state = res.state
        snaps = [(state.t, state.v.coeffs, state.ou.z.coeffs)]
    for j, (t, v, z) in enumerate(snaps):
        name = f"path{index:04d}_snap{j:04d}.bin"
        write_snapshot(os.path.join(outdir, name), ctx.lmax, ctx.spectrum,
                       t, v, z)
        out["snapshots"].append(name)
    return out


def _path_specs(cfg: ExperimentConfig) -> list:
    """The NoiseSpec of each path: a single path keeps the config seed,
    path i of an ensemble takes path_seed(seed, i)."""
    spec = cfg.spec
    return [spec if cfg.n_paths == 1 else
            replace(spec, seed=path_seed(spec.seed, i))
            for i in range(cfg.n_paths)]


def _run_paths(cfg: ExperimentConfig, snapshot_every: int,
               outdir: str | None) -> list:
    """Every path of a stepping mode through _simulate_path_task, on a
    process pool of min(workers, n_paths) workers when that is more than
    one; returns the task results in path order."""
    at_once = min(cfg.workers, cfg.n_paths)
    lanes = max(1, _usable_cpus() // at_once)   # the CPUs left to each path
    payloads = [(cfg.solver, spec, cfg.ctx, snapshot_every, outdir, i, lanes)
                for i, spec in enumerate(_path_specs(cfg))]
    if at_once == 1:
        return [_simulate_path_task(p) for p in payloads]
    # imported here: one worker never needs it, and it slows start-up
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=at_once) as pool:
        return list(pool.map(_simulate_path_task, payloads))


def _path_summary(r: dict, nu: float) -> str:
    """The report.txt line of one simulate path, after its index."""
    led = r["ledger"]
    if led is None:                     # crashed
        return r["status"]
    if led.n:
        summary = (f"t = {led.series('t')[-1]:g}  "
                   f"|v|_H = {math.sqrt(led.series('v_h2')[-1]):.6g}  "
                   f"sup|v|_H^2 = {led.sup('v_h2'):.6g}  "
                   f"int|v|_V^2 = {led.integral('v_v2'):.6g}  "
                   f"energy residual = {energy_residual(led, nu):.3e}")
    else:                               # the t = 0 row already failed
        summary = "no ledger row"
    return f"{summary}  [{r['status']}]"


def _mode_simulate(cfg: ExperimentConfig) -> int:
    scfg, ctx = cfg.solver, cfg.ctx
    results = _run_paths(cfg, cfg.snapshot_every, cfg.output_dir)

    diag = [DIAGNOSTICS_HEADER]
    for r in results:
        diag.extend(r["lines"])
    _write_lines(os.path.join(cfg.output_dir, "diagnostics.csv"), diag)

    lines = [f"paths: {cfg.n_paths}  scheme: {scfg.scheme}  dt: {scfg.dt:g}  "
             f"t_end: {scfg.t_end:g}", _grid_line(ctx)]
    failures = sorted({r["failure"].lower() for r in results if r["failure"]})
    for r in results:
        lines.append(f"path {r['index']:4d}: {_path_summary(r, ctx.nu)}")
        lines.append(f"  snapshots: {', '.join(r['snapshots']) or 'none'}")
    lines.append("result: " + (f"FAIL ({', '.join(failures)})"
                               if failures else "PASS"))
    _write_report(cfg, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# verify-operators
# ---------------------------------------------------------------------------

def _mode_verify_operators(cfg: ExperimentConfig) -> int:
    ctx = cfg.ctx
    rng = substream(cfg.spec.seed, PURPOSE_MC, 101)
    n = max(3, cfg.n_paths)             # trilinear checks need triples
    samples = [random_stream_field(ctx.lmax, rng, decay=1.5, norm=1.0)
               for _ in range(n)]
    rep = inequality_report(samples, ctx)
    consts = b_form_constants(samples, ctx)

    rows = [(name, c["lhs"], c["rhs"], c["ratio"], c["input_id"])
            for name, c in rep.items()]
    rows += [(f"bform_{key}", value, 1.0, value, f"n={n}")
             for key, value in consts.items()]

    # b_antisym / coriolis_zero are identity residuals (exactly zero up to
    # round-off); the rest are bounds whose ratio may approach 1
    gates = {
        "b_antisym": rep["b_antisym"]["ratio"] <= 1e-9,
        "coriolis_zero": rep["coriolis_zero"]["ratio"] <= 1e-10,
        "poincare": rep["poincare"]["ratio"] <= 1.0 + 1e-12,
        "ladyzhenskaya": rep["ladyzhenskaya"]["ratio"] <= 1.0 + 1e-12,
        "b1": rep["b1"]["ratio"] <= 1.0 + 1e-12,
        "b2": rep["b2"]["ratio"] <= 1.0 + 1e-12,
        "b5": rep["b5"]["ratio"] <= 1.0 + 1e-12,
    }
    lines = [f"samples: {n} random fields at lmax = {ctx.lmax}",
             _grid_line(ctx)]
    lines += [f"{name}: worst ratio {rep[name]['ratio']:.3e}  "
              f"[{'PASS' if ok else 'FAIL'}]" for name, ok in gates.items()]
    lines += [f"bform_{key}: {value:.6g}" for key, value in consts.items()]
    return _finish(cfg, rows, lines, all(gates.values()))


# ---------------------------------------------------------------------------
# verify-noise
# ---------------------------------------------------------------------------

def _mode_verify_noise(cfg: ExperimentConfig) -> int:
    spec, lmax = cfg.spec, cfg.ctx.lmax
    n = cfg.n_paths
    rows: list = []
    oks: list = []

    if spec.beta == 2.0:
        rng = substream(spec.seed, PURPOSE_MC, 201)
        worst = 0.0
        for dt_probe in (0.25, 0.1, 0.0125):
            block = levy_increment_block(spec, dt_probe, rng, lmax=lmax)
            worst = max(worst, abs(block.dX - dt_probe))
        rows.append(("clock_deterministic", worst, 0.0, worst, "beta=2"))
        oks.append(("clock_deterministic", worst == 0.0))
    else:
        index = spec.beta / 2.0
        rng = substream(spec.seed, PURPOSE_MC, 202)
        clock = _positive_stable_batch(index, 1.0, rng, n)
        for r in (0.5, 1.0, 2.0):
            # exp(-r X) lies in (0, 1], so its mean has a finite standard
            # error; the gate is 4 of them, estimated from the sample
            sample = np.exp(-r * clock)
            emp = float(np.mean(sample))
            exact = math.exp(-(r ** index))
            ratio = emp / exact
            width = 4.0 * float(np.std(sample)) / math.sqrt(n) / exact
            rows.append((f"laplace_r{r:g}", emp, exact, ratio, f"n={n}"))
            oks.append((f"laplace_r{r:g}", abs(ratio - 1.0) <= width))

    if np.any(spec.sigma_per_mode(lmax) != 0):
        target = cfg.p / spec.beta
        ests = moment_scaling_estimate(spec, cfg.p, cfg.t_list, n, lmax=lmax)
        ts = np.log([t for t, _ in ests])
        ys = np.log([m for _, m in ests])
        slope = float(np.polyfit(ts, ys, 1)[0])
        rows.append(("moment_slope", slope, target, slope / target,
                     f"n={n}"))
        # |L|^p has infinite variance at p < beta: no standard error to
        # size this gate by
        oks.append(("moment_slope", abs(slope - target) <= 0.05))

    lines = [f"samples: {n}  beta: {spec.beta:g}"]
    lines += [f"{name}: {'PASS' if good else 'FAIL'}" for name, good in oks]
    return _finish(cfg, rows, lines, all(good for _, good in oks))


# ---------------------------------------------------------------------------
# verify-ou
# ---------------------------------------------------------------------------

def _horizon_lanes(t_list: tuple, n_lanes: int) -> list:
    """Indices into t_list split into n_lanes lists, longest horizon first
    to the least loaded lane: a check's substep count is proportional to
    its t.  Lane 0 holds the longest horizon."""
    lanes: list = [[] for _ in range(n_lanes)]
    loads = [0.0] * n_lanes
    for k in sorted(range(len(t_list)), key=lambda k: -t_list[k]):
        j = loads.index(min(loads))
        lanes[j].append(k)
        loads[j] += t_list[k]
    return lanes


def _mode_verify_ou(cfg: ExperimentConfig) -> int:
    spec, ctx = cfg.spec, cfg.ctx
    n = cfg.n_paths
    checks: list = [None] * len(cfg.t_list)

    def run_lane(lane: list) -> None:
        # check k draws on stream k whichever lane runs it, so the bytes do
        # not depend on the lane count
        for k in lane:
            checks[k] = ou_moment_check(spec, ctx, cfg.p, cfg.t_list[k], n,
                                        counter=k)

    # the horizons are independent; numpy's draws, ufunc loops and BLAS
    # product release the GIL, so threads overlap them, and unlike worker
    # processes they keep every call inside this process's span tracing
    lanes = _horizon_lanes(cfg.t_list, min(len(cfg.t_list), _usable_cpus()))
    if len(lanes) == 1:
        run_lane(lanes[0])
    else:
        # imported here: one lane never needs it, and it slows start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(lanes) - 1) as pool:
            helpers = [pool.submit(run_lane, lane) for lane in lanes[1:]]
            run_lane(lanes[0])
            for future in helpers:
                future.result()

    rows: list = []
    oks: list = []
    for t, chk in zip(cfg.t_list, checks):
        ceiling = chk["c_tilde"] * chk["bound"]
        rows.append((f"ou_moment_t{t:g}", chk["empirical"], ceiling,
                     chk["ratio"], f"n={n}"))
        oks.append((f"ou_moment_t{t:g}", chk["passed"]))

    # dissipation monotonicity: a larger damping shift can only lower the
    # moment bound; the check at the longest horizon already holds b_lo
    t_ref = max(cfg.t_list)
    b_lo = checks[cfg.t_list.index(t_ref)]["bound"]
    b_hi = zlp_bound(t_ref, cfg.p, spec, replace(ctx, alpha=ctx.alpha + 4.0))
    ratio = b_hi / b_lo if b_lo > 0 else (0.0 if b_hi == 0 else math.inf)
    rows.append(("bound_alpha_monotone", b_hi, b_lo, ratio,
                 f"alpha {ctx.alpha:g} -> {ctx.alpha + 4:g}"))
    oks.append(("bound_alpha_monotone", b_hi <= b_lo))

    lines = [f"samples: {n}  p: {cfg.p:g}  times: "
             + ",".join(f"{t:g}" for t in cfg.t_list)]
    lines += [f"{name}: {'PASS' if good else 'FAIL'}" for name, good in oks]
    return _finish(cfg, rows, lines, all(good for _, good in oks))


# ---------------------------------------------------------------------------
# verify-energy
# ---------------------------------------------------------------------------

def _mode_verify_energy(cfg: ExperimentConfig) -> int:
    ctx = cfg.ctx

    # empirical constant for the convective estimates, measured on fields
    # of the same truncation
    rng = substream(cfg.spec.seed, PURPOSE_MC, 401)
    fields = [random_stream_field(ctx.lmax, rng, decay=1.5, norm=1.0)
              for _ in range(6)]
    consts = b_form_constants(fields, ctx)
    c_emp = max(consts["vzA"], consts["zvA"], consts["vvz"])

    rows: list = []
    oks: list = []
    lines = [f"paths: {cfg.n_paths}  c_emp: {c_emp:.6g}", _grid_line(ctx)]
    observed_of = {"K1": "int_v2_V", "K2": "sup_v_h2",
                   "K3": "sup_v_v2", "K4": "int_av2"}
    for r in _run_paths(cfg, snapshot_every=0, outdir=None):
        tag = f"path{r['index']}"
        if r["failure"]:
            lines.append(f"{tag}: {r['status']}")
            oks.append(False)
            continue
        rep = gronwall_bound_report(r["ledger"], ctx.nu, c_emp=c_emp)
        for name, obs_key in observed_of.items():
            obs = rep["observed"][obs_key]
            bound = rep[name]
            ratio = obs / bound if bound > 0 else (0.0 if obs == 0
                                                   else math.inf)
            rows.append((f"{name}_{obs_key}", obs, bound, ratio, tag))
            oks.append(rep["satisfied"][name])
        resid = energy_residual(r["ledger"], ctx.nu)
        scale = max(rep["observed"]["sup_v_h2"], 1.0)
        rows.append(("energy_residual", abs(resid), 0.0,
                     abs(resid) / scale, tag))
        lines.append(f"{tag}: " + "  ".join(
            f"{name} {'ok' if rep['satisfied'][name] else 'VIOLATED'}"
            for name in ("K1", "K2", "K3", "K4"))
            + f"  residual {resid:.3e}")

    return _finish(cfg, rows, lines, all(oks))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "simulate": _mode_simulate,
    "verify-operators": _mode_verify_operators,
    "verify-noise": _mode_verify_noise,
    "verify-ou": _mode_verify_ou,
    "verify-energy": _mode_verify_energy,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one mode; returns the process exit status."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return _RUNNERS[cfg.mode](cfg)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="snse",
        description="Stochastic Navier-Stokes on the rotating 2-sphere: "
                    "simulation and verification modes.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="INI-style experiment description")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [noise] seed")
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="override [run] output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, mode=args.mode, seed=args.seed,
                           output_dir=args.output)
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
