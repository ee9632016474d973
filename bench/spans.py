"""Span tracing of snse from outside the package, and the per-layer metrics
derived from the spans.

`Tracer.install()` replaces, in every snse module, each function that the
module imports from another snse module by a wrapper that records a span:
name, start, end, parent.  It also wraps a short list of calls that the
per-layer metrics need but that stay inside one module (INTRA_MODULE), the
method EnergyLedger.record_state, and the public entry points.
`uninstall()` puts the original objects back.

Pool workers are forked from the traced process, so they inherit the
wrappers.  The wrapper around cli._simulate_path_task writes the spans a
worker recorded for that task to a JSON file in the trace directory, and the
parent reads those files after the iteration.  perf_counter is
CLOCK_MONOTONIC on Linux, so spans of all processes share one time axis.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import math
import os
import statistics
from time import perf_counter

MODULES = ("harmonics", "operators", "noise", "ou", "diagnostics", "solver",
           "cli")

# calls made inside their own module that the metrics below need
INTRA_MODULE = {
    "noise": ("_positive_stable_batch",),
    "diagnostics": ("norms", "l4_norm"),
    "solver": ("effective_force", "step_imex", "step_picard"),
    "cli": ("parse_config", "run_experiment", "_simulate_path_task",
            "write_snapshot"),
}
METHODS = (("diagnostics", "EnergyLedger", "record_state"),)

PATH_TASK = "cli._simulate_path_task"
STEP_SPANS = ("solver.step_imex", "solver.step_picard")

# Legendre passes and longitude FFTs per call of each public transform
TRANSFORMS = {
    "scalar_synthesis": (1, 1),
    "scalar_analysis": (1, 1),
    "vector_synthesis": (2, 2),
    "gradient_synthesis": (2, 2),
    "vector_analysis": (2, 2),
}


def _n_modes(lmax: int) -> int:
    return (lmax + 1) * (lmax + 2) // 2


def transform_gflop(passes: int, ffts: int, lmax: int, n_lat: int,
                    n_lon: int) -> float:
    """Computed (not counted) operation count of one transform call.

    A Legendre pass multiplies a real table of n_modes x n_lat entries with
    complex data: 4 flops per entry.  A real FFT of length n is counted as
    2.5 n log2 n flops (half the usual 5 n log2 n of a complex FFT), once
    per latitude row.  Prime lengths cost more than this count, which then
    shows as a lower achieved rate.
    """
    legendre = 4.0 * _n_modes(lmax) * n_lat
    fft = 2.5 * n_lon * math.log2(n_lon) * n_lat
    return (passes * legendre + ffts * fft) / 1e9


def _transform_info(passes: int, ffts: int, synthesis: bool):
    def info(args, kwargs):
        if synthesis:
            field, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
            lmax = field.lmax
        else:
            grid = args[0].grid
            lmax = args[1] if len(args) > 1 else kwargs.get("lmax")
            if lmax is None:
                lmax = grid.max_resolved_l()
        return (grid.n_lat, grid.n_lon,
                transform_gflop(passes, ffts, lmax, grid.n_lat, grid.n_lon))
    return info


def _draw_info(args, kwargs):
    size = args[3] if len(args) > 3 else kwargs["size"]
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _info_for(span_name: str):
    module, _, func = span_name.partition(".")
    if module == "harmonics" and func in TRANSFORMS:
        passes, ffts = TRANSFORMS[func]
        return _transform_info(passes, ffts, func.endswith("synthesis"))
    if span_name == "noise._positive_stable_batch":
        return _draw_info
    return None


class Tracer:
    """Spans of one process: [name, start, end, parent index, info]."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.owner_pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self._patches: list = []
        self._task_counter = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self.spans, self.stack = [], []

    def _wrap(self, name: str, fn):
        info = _info_for(name)
        is_task = name == PATH_TASK
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   info(args, kwargs) if info is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if is_task and os.getpid() != tracer.owner_pid:
                    tracer._dump_worker_spans()
        return wrapper

    def _dump_worker_spans(self):
        if self.stack:              # an enclosing span is still open
            return
        self._task_counter += 1
        path = os.path.join(self.trace_dir,
                            f"w{os.getpid()}-{self._task_counter}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        self.spans.clear()

    def install(self) -> list:
        """Wrap the targets; returns the span names whose target is absent."""
        mods = {m: importlib.import_module(f"snse.{m}") for m in MODULES}
        targets = {}                         # (owner, name) -> original
        for mod in mods.values():
            for name, obj in vars(mod).items():
                owner = getattr(obj, "__module__", None) or ""
                if (callable(obj) and not isinstance(obj, type)
                        and owner.startswith("snse.") and owner != mod.__name__):
                    targets[(owner.split(".")[1], name)] = obj
        missing = []
        for owner, names in INTRA_MODULE.items():
            for name in names:
                if hasattr(mods[owner], name):
                    targets[(owner, name)] = getattr(mods[owner], name)
                else:
                    missing.append(f"{owner}.{name}")
        for (owner, name), orig in targets.items():
            wrapper = self._wrap(f"{owner}.{name}", orig)
            for mod in mods.values():
                if vars(mod).get(name) is orig and (
                        mod is not mods[owner]
                        or name in INTRA_MODULE.get(owner, ())):
                    self._patch(mod, name, orig, wrapper)
        for owner, cls_name, meth in METHODS:
            cls = getattr(mods[owner], cls_name)
            orig = vars(cls)[meth]
            self._patch(cls, meth, orig,
                        self._wrap(f"{owner}.{cls_name}.{meth}", orig))
        return missing

    def _patch(self, obj, name, orig, wrapper):
        setattr(obj, name, wrapper)
        self._patches.append((obj, name, orig))

    def uninstall(self):
        for obj, name, orig in reversed(self._patches):
            setattr(obj, name, orig)
        self._patches.clear()

    def take(self) -> list:
        """Span lists of this iteration: this process's, then each worker
        task's.  Clears what it returns."""
        procs = [self.spans[:]]
        self.spans.clear()
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "w*.json"))):
            with open(path, encoding="utf-8") as fh:
                procs.append(json.load(fh))
            os.remove(path)
        return procs


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced iteration
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "harmonics.transform_calls_per_step": ("count", "lower"),
    "harmonics.transform_self_s": ("s", "lower"),
    "harmonics.n_lon_product": ("count", "lower"),
    "harmonics.n_lon_l4": ("count", "lower"),
    "harmonics.computed_gflop_per_step": ("GFLOP", "lower"),
    "harmonics.achieved_gflops": ("GFLOP/s", "higher"),
    "operators.nonlinear_B_calls_per_step": ("count", "lower"),
    "operators.nonlinear_B_ms": ("ms", "lower"),
    "operators.trilinear_b_calls_per_step": ("count", "lower"),
    "operators.trilinear_b_ms": ("ms", "lower"),
    "diagnostics.ledger_row_ms": ("ms", "lower"),
    "diagnostics.ledger_share": ("ratio", "lower"),
    "diagnostics.l4_norm_calls_per_step": ("count", "lower"),
    "diagnostics.norms_calls_per_step": ("count", "lower"),
    "solver.step_ms": ("ms", "lower"),
    "solver.effective_force_ms": ("ms", "lower"),
    "solver.self_ms_per_step": ("ms", "lower"),
    "solver.steps": ("count", "higher"),
    "solver.run_s": ("s", "lower"),
    "noise.summability_calls": ("count", "lower"),
    "noise.summability_ms": ("ms", "lower"),
    "noise.increment_blocks_per_step": ("count", "lower"),
    "noise.increment_block_us": ("us", "lower"),
    "noise.clock_draw_calls": ("count", "lower"),
    "noise.clock_draw_s": ("s", "lower"),
    "noise.clock_draws_per_s": ("1/s", "higher"),
    "ou.ou_step_us": ("us", "lower"),
    "ou.ou_step_calls_per_step": ("count", "lower"),
    "ou.moment_check_s": ("s", "lower"),
    "ou.moment_check_self_s": ("s", "lower"),
    "ou.clock_substeps": ("count", "higher"),
    "cli.parse_config_ms": ("ms", "lower"),
    "cli.snapshot_writes": ("count", "lower"),
    "cli.snapshot_write_ms": ("ms", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "cli.pool_busy_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

# exact counts: identical on every iteration of one seed
COUNTS = ("harmonics.transform_calls_per_step", "harmonics.n_lon_product",
          "harmonics.n_lon_l4", "harmonics.computed_gflop_per_step",
          "operators.nonlinear_B_calls_per_step",
          "operators.trilinear_b_calls_per_step",
          "diagnostics.l4_norm_calls_per_step",
          "diagnostics.norms_calls_per_step", "solver.steps",
          "noise.summability_calls", "noise.increment_blocks_per_step",
          "noise.clock_draw_calls", "ou.ou_step_calls_per_step",
          "ou.clock_substeps", "cli.snapshot_writes", "cli.artifact_bytes")


class _Proc:
    """Durations, self times and ancestry of one process's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_t = self.dur[:]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.self_t[s[3]] -= self.dur[i]

    def under(self, i: int, prefix: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0].startswith(prefix):
                return True
            p = self.spans[p][3]
        return False


def iteration_metrics(procs: list, workers: int) -> dict:
    """Per-layer metrics of one traced iteration (parse_config plus one
    run_experiment); procs as returned by Tracer.take().

    Per-step values divide by the solver steps over all paths; on a
    workload that takes no solver step they are 0, as is every metric of
    a layer the workload does not call.
    """
    P = [_Proc(spans) for spans in procs]
    by_name: dict = {}
    for p in P:
        for i, s in enumerate(p.spans):
            by_name.setdefault(s[0], []).append((p, i))

    def each(name):
        return by_name.get(name, [])

    def calls(name):
        return len(each(name))

    def total(name, self_time=False):
        return sum((p.self_t if self_time else p.dur)[i] for p, i in each(name))

    def mean(name, scale):
        n = calls(name)
        return scale * total(name) / n if n else 0.0

    steps = sum(calls(n) for n in STEP_SPANS)

    def per_step(x):
        return x / steps if steps else 0.0

    tf_names = [f"harmonics.{t}" for t in TRANSFORMS]
    tf_calls = sum(calls(n) for n in tf_names)
    tf_self = sum(total(n, self_time=True) for n in tf_names)
    gflop = 0.0
    n_lon = {"operators.nonlinear_B": 0, "diagnostics.l4_norm": 0}
    for name in tf_names:
        for p, i in each(name):
            gflop += p.spans[i][4][2]
            for under in n_lon:
                if p.under(i, under):
                    n_lon[under] = max(n_lon[under], p.spans[i][4][1])

    run_s = total("solver.run")
    ledger_s = total("diagnostics.EnergyLedger.record_state")
    solver_self = sum(p.self_t[i] for p in P for i, s in enumerate(p.spans)
                      if s[0].startswith("solver."))
    draws = each("noise._positive_stable_batch")
    draw_s = sum(p.dur[i] for p, i in draws)
    draw_samples = sum(p.spans[i][4] for p, i in draws)
    # pool wall time: the parent's run_experiment, which starts and shuts
    # down the pool (and adds the short merge of the per-path results)
    tasks = each(PATH_TASK)
    busy = 0.0
    if tasks:
        envelope = total("cli.run_experiment")
        busy = sum(p.dur[i] for p, i in tasks) / (workers * envelope)

    return {
        "harmonics.transform_calls_per_step": per_step(tf_calls),
        "harmonics.transform_self_s": tf_self,
        "harmonics.n_lon_product": n_lon["operators.nonlinear_B"],
        "harmonics.n_lon_l4": n_lon["diagnostics.l4_norm"],
        "harmonics.computed_gflop_per_step": per_step(gflop),
        "harmonics.achieved_gflops": gflop / tf_self if tf_self else 0.0,
        "operators.nonlinear_B_calls_per_step":
            per_step(calls("operators.nonlinear_B")),
        "operators.nonlinear_B_ms": mean("operators.nonlinear_B", 1e3),
        "operators.trilinear_b_calls_per_step":
            per_step(calls("operators.trilinear_b")),
        "operators.trilinear_b_ms": mean("operators.trilinear_b", 1e3),
        "diagnostics.ledger_row_ms":
            mean("diagnostics.EnergyLedger.record_state", 1e3),
        "diagnostics.ledger_share": ledger_s / run_s if run_s else 0.0,
        "diagnostics.l4_norm_calls_per_step":
            per_step(calls("diagnostics.l4_norm")),
        "diagnostics.norms_calls_per_step": per_step(calls("diagnostics.norms")),
        "solver.step_ms": 1e3 * per_step(sum(total(n) for n in STEP_SPANS)),
        "solver.effective_force_ms": mean("solver.effective_force", 1e3),
        "solver.self_ms_per_step": 1e3 * per_step(solver_self),
        "solver.steps": steps,
        "solver.run_s": run_s,
        "noise.summability_calls": calls("noise.check_summability"),
        "noise.summability_ms": mean("noise.check_summability", 1e3),
        "noise.increment_blocks_per_step":
            per_step(calls("noise.levy_increment_block")),
        "noise.increment_block_us": mean("noise.levy_increment_block", 1e6),
        "noise.clock_draw_calls": len(draws),
        "noise.clock_draw_s": draw_s,
        "noise.clock_draws_per_s": draw_samples / draw_s if draw_s else 0.0,
        "ou.ou_step_us": mean("ou.ou_step", 1e6),
        "ou.ou_step_calls_per_step": per_step(calls("ou.ou_step")),
        "ou.moment_check_s": total("ou.ou_moment_check"),
        "ou.moment_check_self_s": total("ou.ou_moment_check", self_time=True),
        "ou.clock_substeps": sum(1 for p, i in draws if p.under(i, "ou.")),
        "cli.parse_config_ms": 1e3 * total("cli.parse_config"),
        "cli.snapshot_writes": calls("cli.write_snapshot"),
        "cli.snapshot_write_ms": mean("cli.write_snapshot", 1e3),
        "cli.pool_busy_share": busy,
    }


def summarize(iterations: list, traced_wall: list, untraced_wall: list) -> dict:
    """Median of each per-layer metric over the traced iterations, plus the
    tracing overhead (median traced minus median untraced wall_s)."""
    out = {name: statistics.median(it[name] for it in iterations)
           for name in iterations[0]}
    base = statistics.median(untraced_wall)
    out["trace.overhead_s"] = statistics.median(traced_wall) - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base
    return {name: out[name] for name in PER_LAYER}
