"""Measured runs of one workload in one interpreter; started by run.py.

It writes the config of the workload, runs it once at the reference seed
(untimed: this fills the caches and is compared with the stored reference
values), then repeats `run_experiment` at the given seed until `--seconds`
have passed.  Each run is timed on its own, and its artifacts are checked
after the timer stops.  With --trace 1, runs alternate between untraced and
traced, and the traced ones also go through `parse_config`, so both the
per-layer metrics and the tracing overhead come from one process.

The result goes to --out as JSON.  It needs snse importable (run.py puts
src/ on PYTHONPATH and pins BLAS and OpenMP to one thread).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads as W


def _clear(outdir: str):
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--record-reference", action="store_true",
                    help="print the values of the reference run and exit")
    args = ap.parse_args()

    import snse.cli
    from spans import COUNTS, Tracer, iteration_metrics, summarize

    name, spec = args.workload, W.WORKLOADS[args.workload]
    outdir = os.path.join(args.workdir, "out")
    trace_dir = os.path.join(args.workdir, "spans")
    os.makedirs(trace_dir, exist_ok=True)

    def parse(seed: int):
        path = os.path.join(args.workdir, f"seed{seed}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(W.config_text(name, seed))
        return snse.cli.parse_config(path, mode=spec["mode"],
                                     output_dir=outdir)

    attempted, failed, mismatch, reasons = 0, 0, False, []

    def execute(cfg, reference=None):
        """One run_experiment, timed; then its artifacts are checked."""
        nonlocal attempted, failed, mismatch
        _clear(outdir)
        t0 = time.perf_counter()
        try:
            rc = snse.cli.run_experiment(cfg)
        except Exception:                  # counted as failed operations
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        n_ops = W.operations(name)
        if rc is None:
            out = W.Outcome(n_ops)
            out.fail(None, "run_experiment raised")
        else:
            try:
                out = W.check(name, outdir, rc, reference)
            except (OSError, ValueError, IndexError) as err:
                out = W.Outcome(n_ops)
                out.fail(None, f"unreadable artifacts: {err}")
        attempted += n_ops
        failed += len(out.failed)
        mismatch = mismatch or out.mismatch
        reasons.extend(r for r in out.failed.values() if r not in reasons)
        return wall, out

    ref_cfg = parse(W.REF_SEED)
    if args.record_reference:
        _, out = execute(ref_cfg)
        print(json.dumps(out.observed))
        return 0
    execute(ref_cfg, W.REFERENCE[name])

    cfg = parse(args.seed)
    workers = cfg.workers if cfg.n_paths > 1 and cfg.workers > 1 else 1
    tracer = Tracer(trace_dir) if args.trace else None
    walls = {False: [], True: []}
    layer_its, digests, missing = [], set(), []
    laps = []                 # loop passes, checks included
    # stop before a run that would end after --seconds
    start = time.perf_counter()
    while len(laps) < 2 or (time.perf_counter() - start
                            + statistics.median(laps) <= args.seconds):
        lap = time.perf_counter()
        traced = bool(tracer) and len(laps) % 2 == 1
        if traced:
            missing = tracer.install()
            try:
                cfg = parse(args.seed)
                wall, out = execute(cfg)
            finally:
                tracer.uninstall()
            its = iteration_metrics(tracer.take(), workers)
            its["cli.artifact_bytes"] = W.artifact_digest(outdir)[1]
            layer_its.append(its)
        else:
            wall, out = execute(cfg)
        walls[traced].append(wall)
        digests.add(W.artifact_digest(outdir)[0])
        laps.append(time.perf_counter() - lap)
    if len(digests) > 1:
        mismatch = True
        reasons.append(f"{len(digests)} different artifact sets from one seed")

    result = {
        "attempted": attempted, "failed": failed, "correct": not mismatch,
        "reasons": reasons, "env": _environment(),
        "path_steps": W.path_steps(name), "peak_rss_mb": _peak_rss_mb(),
        "wall_s": walls[False],
    }
    if tracer:
        result["layers"] = summarize(layer_its, walls[True], walls[False])
        result["traced_wall_s"] = walls[True]
        result["missing_targets"] = missing
        result["counts_vary"] = [m for m in COUNTS
                                 if len({it[m] for it in layer_its}) > 1]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
