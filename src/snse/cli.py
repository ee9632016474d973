"""Command-line front end: config files, experiment modes, artifact files.

A run is described by an INI-style config (sections [run], [model],
[noise], [time], [initial], [verify]).  Parsing is strict: the first
unknown key, type error, or violated constraint aborts with a message
citing the offending line.  Five modes share the entry point:

    snse <mode> --config <path> [--seed N] [--output DIR]

simulate          integrate the split system, write diagnostics.csv,
                  binary state snapshots, and report.txt
verify-operators  worst-case inequality ratios on random fields -> checks.csv
verify-noise      subordinator Laplace transform and moment-scaling slope
verify-ou         stochastic-convolution moment bounds at the configured times
verify-energy     a-priori energy constants K1..K4 against a recorded run

Exit status: 0 on success, 1 on blow-up or a failed check, 2 on a config
error.  All artifacts are written deterministically (no timestamps; float
formatting via repr round-trips), so identical configs produce identical
bytes regardless of worker count.
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
                          gronwall_bound_report, inequality_report)
from .harmonics import (ParameterError, SpectralField, gauss_legendre_grid,
                        n_modes, random_stream_field, unit_stream_mode)
from .noise import (NoiseSpec, PURPOSE_MC, PURPOSE_PATH, _positive_stable_batch,
                    check_summability, levy_increment_block,
                    moment_scaling_estimate, substream)
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
    """Fully validated experiment description (one mode, one model)."""

    mode: str
    output_dir: str
    snapshot_every: int
    n_paths: int
    workers: int
    lmax: int
    nu: float
    omega: float
    alpha: float
    spectrum: str
    n_lat: int | None
    n_lon: int | None
    dealias: bool
    beta: float
    sigma: str
    delta: float
    n_substeps: int
    seed: int
    dt: float | None
    t_end: float | None
    scheme: str
    picard_tol: float
    picard_max_iter: int
    v0: str
    f: str
    p: float
    t_list: tuple

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(beta=self.beta, sigma_rule=self.sigma,
                         delta=self.delta, seed=self.seed,
                         n_substeps=self.n_substeps, lmax=self.lmax)

    def solver_config(self) -> SolverConfig:
        fields = {}
        for key in ("v0", "f"):
            try:
                fields[key] = build_field(getattr(self, key), self.lmax)
            except ParameterError as err:
                raise ParameterError(key, str(err)) from None
        return SolverConfig(lmax=self.lmax, dt=self.dt, t_end=self.t_end,
                            nu=self.nu, omega=self.omega, alpha=self.alpha,
                            scheme=self.scheme, picard_tol=self.picard_tol,
                            picard_max_iter=self.picard_max_iter,
                            spectrum=self.spectrum, **fields)

    def operator_context(self) -> OperatorContext:
        grid = (gauss_legendre_grid(self.n_lat, self.n_lon)
                if None not in (self.n_lat, self.n_lon) else None)
        return OperatorContext(self.lmax, nu=self.nu, omega=self.omega,
                               grid=grid, dealias=self.dealias,
                               spectrum=self.spectrum)


def _parse_field_descriptor(text: str) -> tuple:
    """Validate an initial-data string; returns its parsed form.

    Grammar:  zero | mode:l=L[,m=M][,amp=A] | random:decay=D,norm=N,seed=S
    (random's parts are each optional).
    """
    body = text.strip()
    if body == "zero":
        return ("zero",)
    head, _, rest = body.partition(":")
    if head == "mode":
        opts = _kv_opts(rest, {"l": int, "m": int, "amp": float}, body)
        if "l" not in opts:
            raise ValueError(f"field descriptor {body!r} needs l=<degree>")
        return ("mode", opts["l"], opts.get("m", 0), opts.get("amp", 1.0))
    if head == "random":
        opts = _kv_opts(rest, {"decay": float, "norm": float, "seed": int}, body)
        return ("random", opts.get("decay", 2.0), opts.get("norm", 1.0),
                opts.get("seed", 0))
    raise ValueError(f"field descriptor {body!r} must be 'zero', "
                     "'mode:l=..[,m=..][,amp=..]' or "
                     "'random:[decay=..][,norm=..][,seed=..]'")


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

    A malformed descriptor, or a mode outside the band limit, raises
    ParameterError naming "descriptor".
    """
    try:
        kind, *args = _parse_field_descriptor(descriptor)
        if kind == "zero":
            return None
        if kind == "mode":
            l, m, amp = args
            field = unit_stream_mode(lmax, l, m)
            field.coeffs *= amp
            return field
        decay, norm, seed = args
        return random_stream_field(lmax, np.random.default_rng(seed),
                                   decay=decay, norm=norm)
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

    def get(section, key, default=None):
        return values.get((section, key), default)

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
    if get("model", "lmax") is None:
        raise ConfigError(f"{path}: missing required key lmax in [model]")
    dt, t_end = get("time", "dt"), get("time", "t_end")
    t_raw = get("verify", "t", "0.1,1,10")
    try:
        t_list = tuple(float(part) for part in t_raw.split(","))
    except ValueError:
        t_list = None

    cfg = ExperimentConfig(
        mode=mode,
        output_dir=(output_dir if output_dir is not None
                    else get("run", "output_dir", ".")),
        snapshot_every=get("run", "snapshot_every", 0),
        n_paths=get("run", "n_paths", _DEFAULT_PATHS[mode]),
        workers=get("run", "workers", 1),
        lmax=get("model", "lmax"), nu=get("model", "nu", 1.0),
        omega=get("model", "omega", 0.0), alpha=get("model", "alpha", 0.0),
        spectrum=get("model", "spectrum", "paper"),
        n_lat=get("model", "n_lat"), n_lon=get("model", "n_lon"),
        dealias=get("model", "dealias", True),
        beta=get("noise", "beta", 2.0), sigma=get("noise", "sigma", "zero"),
        delta=get("noise", "delta", 0.0),
        n_substeps=get("noise", "n_substeps", 1),
        seed=seed if seed is not None else get("noise", "seed", 0),
        dt=dt, t_end=t_end, scheme=get("time", "scheme", "imex_heun"),
        picard_tol=get("time", "picard_tol", 1e-10),
        picard_max_iter=get("time", "picard_max_iter", 50),
        v0=get("initial", "v0", "zero"), f=get("initial", "f", "zero"),
        p=get("verify", "p", 1.0), t_list=t_list)

    # values are judged section by section ([model], [noise], [time],
    # [initial]) by their owners.  The verify modes never step: a [time]
    # value they are given meets the SolverConfig rules with the missing one
    # standing in as a single step that only the given value's rules can fail
    probe_dt = dt if dt is not None else abs(t_end or 1.0)
    probe_t_end = t_end if t_end is not None else probe_dt
    try:
        ctx = cfg.operator_context()
        if (cfg.n_lat is None) != (cfg.n_lon is None):
            fail("n_lat", "n_lat and n_lon must be given together")
        spec = cfg.noise_spec()
        for key, value in (("dt", dt), ("t_end", t_end)):
            if mode in _STEPPING_MODES and value is None:
                raise ConfigError(f"{path}: mode {mode} needs {key} in [time]")
        scfg = replace(cfg, dt=probe_dt, t_end=probe_t_end).solver_config()
        if mode in _STEPPING_MODES:
            _initial_ou(ctx, scfg, spec)
    except ParameterError as err:
        fail(_KEY_OF_PARAM.get(err.param, err.param), str(err))

    if cfg.p <= 0:
        fail("p", f"p = {cfg.p:g} must be positive")
    if cfg.beta < 2.0 and cfg.p >= cfg.beta:
        fail("p", f"p = {cfg.p:g} with beta = {cfg.beta:g}: p < β required "
                  "(higher moments of the driving noise are infinite)")
    if not t_list or any(tv <= 0 for tv in t_list):
        fail("t", f"t = {t_raw!r} must be a comma-separated list of "
                  "positive times")
    for key, least in (("snapshot_every", 0), ("n_paths", 1), ("workers", 1)):
        if getattr(cfg, key) < least:
            fail(key, f"{key} must be >= {least}")

    if mode != "verify-operators" and not check_summability(
            spec, cfg.delta)["converged"]:
        fail("sigma", f"noise spectrum fails the summability check at "
                      f"delta = {cfg.delta:g}")
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
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIBd", SNAPSHOT_VERSION, lmax, flag, float(t)))
        for coeffs in (v_coeffs, z_coeffs):
            if coeffs.shape != (nm,):
                raise ValueError(f"coefficient block must have shape ({nm},)")
            flat = np.empty(2 * (nm - 1), dtype="<f8")
            flat[0::2] = coeffs.real[1:]
            flat[1::2] = coeffs.imag[1:]
            fh.write(flat.tobytes())


def read_snapshot(path: str) -> dict:
    """Inverse of write_snapshot; returns full-length coefficient arrays
    (the l = 0 slot restored as zero)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic)")
    version, lmax, flag, t = struct.unpack_from("<IIBd", blob, 4)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if flag not in _SPECTRUM_OF_FLAG:
        raise ValueError(f"{path}: unknown spectrum flag {flag}")
    nm = n_modes(lmax)
    expect = 4 + struct.calcsize("<IIBd") + 2 * 16 * (nm - 1)
    if len(blob) != expect:
        raise ValueError(f"{path}: truncated snapshot "
                         f"({len(blob)} bytes, expected {expect})")
    offset = 4 + struct.calcsize("<IIBd")
    out = {}
    for name in ("v", "z"):
        flat = np.frombuffer(blob, dtype="<f8", count=2 * (nm - 1),
                             offset=offset)
        offset += flat.nbytes
        coeffs = np.zeros(nm, dtype=np.complex128)
        coeffs[1:] = flat[0::2] + 1j * flat[1::2]
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
    head = [f"mode: {cfg.mode}",
            f"model: lmax={cfg.lmax} nu={cfg.nu:g} omega={cfg.omega:g} "
            f"alpha={cfg.alpha:g} spectrum={cfg.spectrum}",
            f"noise: beta={cfg.beta:g} sigma={cfg.sigma} "
            f"delta={cfg.delta:g} n_substeps={cfg.n_substeps} "
            f"seed={cfg.seed}",
            ""]
    _write_lines(os.path.join(cfg.output_dir, "report.txt"), head + lines)


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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_path_task(payload: tuple) -> dict:
    """One sample path, executable in a worker process.

    Returns pre-formatted CSV lines so the parent's concatenation is
    byte-identical no matter where the path ran.
    """
    scfg, spec, ctx, seed, snapshot_every, outdir, index = payload
    failure, status = None, "ok"
    try:
        res = run(scfg, spec, seed=seed, snapshot_every=snapshot_every,
                  ctx=ctx)
    except StepFailure as err:
        res, failure = err.result, err.status
        status = f"{err.status} at t = {err.t:g}"
    lines = [",".join(_fmt(x) for x in row) for row in res.diagnostic_table()]

    snaps = res.snapshots
    if not snaps:                       # endpoint only (snapshot_every = 0)
        state = res.state
        snaps = [(state.t, state.v.coeffs, state.ou.z.coeffs)]
    names = []
    for j, (t, v, z) in enumerate(snaps):
        name = f"path{index:04d}_snap{j:04d}.bin"
        write_snapshot(os.path.join(outdir, name), scfg.lmax, scfg.spectrum,
                       t, v, z)
        names.append(name)

    led = res.ledger
    if led.n:
        summary = (f"t = {led.series('t')[-1]:g}  "
                   f"|v|_H = {math.sqrt(led.series('v_h2')[-1]):.6g}  "
                   f"sup|v|_H^2 = {led.sup('v_h2'):.6g}  "
                   f"int|v|_V^2 = {led.integral('v_v2'):.6g}  "
                   f"energy residual = {energy_residual(led, scfg.nu):.3e}")
    else:                               # the t = 0 row already failed
        summary = "no ledger row"
    return {
        "index": index,
        "lines": lines,
        "snapshots": names,
        "failure": failure,
        "summary": f"{summary}  [{status}]",
    }


def _simulate_payloads(cfg: ExperimentConfig) -> list:
    scfg = cfg.solver_config()
    spec = cfg.noise_spec()
    ctx = cfg.operator_context()
    payloads = []
    for i in range(cfg.n_paths):
        seed_i = cfg.seed if cfg.n_paths == 1 else path_seed(cfg.seed, i)
        payloads.append((scfg, spec, ctx, seed_i, cfg.snapshot_every,
                         cfg.output_dir, i))
    return payloads


def _mode_simulate(cfg: ExperimentConfig) -> int:
    payloads = _simulate_payloads(cfg)
    if cfg.workers == 1 or cfg.n_paths == 1:
        results = [_simulate_path_task(p) for p in payloads]
    else:
        # imported here: one worker never needs it, and it slows start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_simulate_path_task, payloads))

    diag = [DIAGNOSTICS_HEADER]
    for r in results:                   # map preserves submission order
        diag.extend(r["lines"])
    _write_lines(os.path.join(cfg.output_dir, "diagnostics.csv"), diag)

    lines = [f"paths: {cfg.n_paths}  scheme: {cfg.scheme}  dt: {cfg.dt:g}  "
             f"t_end: {cfg.t_end:g}"]
    failures = sorted({r["failure"].lower() for r in results if r["failure"]})
    for r in results:
        lines.append(f"path {r['index']:4d}: {r['summary']}")
        lines.append(f"  snapshots: {', '.join(r['snapshots'])}")
    lines.append("result: " + (f"FAIL ({', '.join(failures)})"
                               if failures else "PASS"))
    _write_report(cfg, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# verify-operators
# ---------------------------------------------------------------------------

def _mode_verify_operators(cfg: ExperimentConfig) -> int:
    ctx = cfg.operator_context()
    rng = substream(cfg.seed, PURPOSE_MC, 101)
    n = max(3, cfg.n_paths)             # trilinear checks need triples
    samples = [random_stream_field(cfg.lmax, rng, decay=1.5, norm=1.0)
               for _ in range(n)]
    rep = inequality_report(samples, ctx)
    consts = b_form_constants(samples, ctx)

    rows = [(name, c["lhs"], c["rhs"], c["ratio"], c["input_id"])
            for name, c in rep.checks.items()]
    rows += [(f"bform_{key}", value, 1.0, value, f"n={n}")
             for key, value in consts.items()]

    # b_antisym / coriolis_zero are identity residuals (exactly zero up to
    # round-off); the rest are bounds whose ratio may approach 1
    gates = {
        "b_antisym": rep.checks["b_antisym"]["ratio"] <= 1e-9,
        "coriolis_zero": rep.checks["coriolis_zero"]["ratio"] <= 1e-10,
        "poincare": rep.checks["poincare"]["ratio"] <= 1.0 + 1e-12,
        "ladyzhenskaya": rep.checks["ladyzhenskaya"]["ratio"] <= 1.0 + 1e-12,
        "b1": rep.checks["b1"]["ratio"] <= 1.0 + 1e-12,
        "b2": rep.checks["b2"]["ratio"] <= 1.0 + 1e-12,
        "b5": rep.checks["b5"]["ratio"] <= 1.0 + 1e-12,
    }
    lines = [f"samples: {n} random fields at lmax = {cfg.lmax}"]
    lines += [f"{name}: worst ratio {rep.checks[name]['ratio']:.3e}  "
              f"[{'PASS' if ok else 'FAIL'}]" for name, ok in gates.items()]
    lines += [f"bform_{key}: {value:.6g}" for key, value in consts.items()]
    return _finish(cfg, rows, lines, all(gates.values()))


# ---------------------------------------------------------------------------
# verify-noise
# ---------------------------------------------------------------------------

def _mode_verify_noise(cfg: ExperimentConfig) -> int:
    spec = cfg.noise_spec()
    n = cfg.n_paths
    rows: list = []
    oks: list = []

    if spec.beta == 2.0:
        rng = substream(cfg.seed, PURPOSE_MC, 201)
        worst = 0.0
        for dt_probe in (0.25, 0.1, 0.0125):
            block = levy_increment_block(spec, dt_probe, rng)
            worst = max(worst, abs(block.dX - dt_probe))
        rows.append(("clock_deterministic", worst, 0.0, worst, "beta=2"))
        oks.append(("clock_deterministic", worst == 0.0))
    else:
        index = spec.beta / 2.0
        rng = substream(cfg.seed, PURPOSE_MC, 202)
        clock = _positive_stable_batch(index, 1.0, rng, n)
        for r in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.exp(-r * clock)))
            exact = math.exp(-(r ** index))
            ratio = emp / exact
            rows.append((f"laplace_r{r:g}", emp, exact, ratio, f"n={n}"))
            oks.append((f"laplace_r{r:g}", abs(ratio - 1.0) <= 0.01))

    zero_noise = all(spec.sigma_rule(np.arange(1, 64)) == 0.0)
    if not zero_noise:
        target = cfg.p / spec.beta
        ests = moment_scaling_estimate(spec, cfg.delta, cfg.p, cfg.t_list, n)
        ts = np.log([t for t, _ in ests])
        ys = np.log([m for _, m in ests])
        slope = float(np.polyfit(ts, ys, 1)[0])
        rows.append(("moment_slope", slope, target, slope / target,
                     f"n={n}"))
        oks.append(("moment_slope", abs(slope - target) <= 0.05))

    lines = [f"samples: {n}  beta: {spec.beta:g}"]
    lines += [f"{name}: {'PASS' if good else 'FAIL'}" for name, good in oks]
    return _finish(cfg, rows, lines, all(good for _, good in oks))


# ---------------------------------------------------------------------------
# verify-ou
# ---------------------------------------------------------------------------

def _mode_verify_ou(cfg: ExperimentConfig) -> int:
    spec = cfg.noise_spec()
    n = cfg.n_paths
    rows: list = []
    oks: list = []
    for k, t in enumerate(cfg.t_list):
        chk = ou_moment_check(spec, cfg.alpha, cfg.p, t, n, nu=cfg.nu,
                              counter=k)
        ceiling = chk["c_tilde"] * chk["bound"]
        rows.append((f"ou_moment_t{t:g}", chk["empirical"], ceiling,
                     chk["ratio"], f"n={n}"))
        oks.append((f"ou_moment_t{t:g}", chk["passed"]))

    # dissipation monotonicity: a larger damping shift can only lower the
    # moment bound
    t_ref = max(cfg.t_list)
    b_lo = zlp_bound(t_ref, cfg.p, spec, cfg.alpha, spec.lmax, nu=cfg.nu)
    b_hi = zlp_bound(t_ref, cfg.p, spec, cfg.alpha + 4.0, spec.lmax,
                     nu=cfg.nu)
    ratio = b_hi / b_lo if b_lo > 0 else (0.0 if b_hi == 0 else math.inf)
    rows.append(("bound_alpha_monotone", b_hi, b_lo, ratio,
                 f"alpha {cfg.alpha:g} -> {cfg.alpha + 4:g}"))
    oks.append(("bound_alpha_monotone", b_hi <= b_lo))

    lines = [f"samples: {n}  p: {cfg.p:g}  times: "
             + ",".join(f"{t:g}" for t in cfg.t_list)]
    lines += [f"{name}: {'PASS' if good else 'FAIL'}" for name, good in oks]
    return _finish(cfg, rows, lines, all(good for _, good in oks))


# ---------------------------------------------------------------------------
# verify-energy
# ---------------------------------------------------------------------------

def _mode_verify_energy(cfg: ExperimentConfig) -> int:
    scfg = cfg.solver_config()
    spec = cfg.noise_spec()
    ctx = cfg.operator_context()

    # empirical constant for the convective estimates, measured on fields
    # of the same truncation
    rng = substream(cfg.seed, PURPOSE_MC, 401)
    fields = [random_stream_field(cfg.lmax, rng, decay=1.5, norm=1.0)
              for _ in range(6)]
    consts = b_form_constants(fields, ctx)
    c_emp = max(consts["vzA"], consts["zvA"], consts["vvz"])

    rows: list = []
    oks: list = []
    lines = [f"paths: {cfg.n_paths}  c_emp: {c_emp:.6g}"]
    observed_of = {"K1": "int_v2_V", "K2": "sup_v_h2",
                   "K3": "sup_v_v2", "K4": "int_av2"}
    for i in range(cfg.n_paths):
        seed_i = cfg.seed if cfg.n_paths == 1 else path_seed(cfg.seed, i)
        tag = f"path{i}"
        try:
            res = run(scfg, spec, seed=seed_i, ctx=ctx)
        except StepFailure as err:
            lines.append(f"{tag}: {err.status} at t = {err.t:g}")
            oks.append(False)
            continue
        rep = gronwall_bound_report(res.ledger, scfg, c_emp=c_emp)
        for name, obs_key in observed_of.items():
            obs = rep["observed"][obs_key]
            bound = rep[name]
            ratio = obs / bound if bound > 0 else (0.0 if obs == 0
                                                   else math.inf)
            rows.append((f"{name}_{obs_key}", obs, bound, ratio, tag))
            oks.append(rep["satisfied"][name])
        resid = energy_residual(res.ledger, scfg.nu)
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
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
