"""Self-test of the benchmark.

usage: python3 bench/selftest.py

1. Two traced runs of each workload at one seed report identical exact
   counts (spans.COUNTS), no failure, and the solver steps and OU clock
   substeps the workload defines (so pool-worker spans were collected).
2. The reference check passes on the recorded values and fails when one
   recorded value is moved by 1e-6 relative.
3. Without the snse sources, run.py exits nonzero and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
# before numpy loads, as in every process run.py starts
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import spans  # noqa: E402
import workloads as W  # noqa: E402

SEED = 5
problems = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def run_bench(name: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         name, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def counts_repeat():
    for name, w in W.WORKLOADS.items():
        results = []
        for _ in range(2):
            proc = run_bench(name)
            expect(proc.returncode == 0, f"{name}: run.py exits 0")
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        a, b = ({m: r["metrics"][m]["value"] for m in spans.COUNTS}
                for r in results)
        diff = [m for m in spans.COUNTS if a[m] != b[m]]
        expect(not diff, f"{name}: identical counts in two runs {diff or ''}")
        expect(all(r["failed"] == 0 and r["correct"] for r in results),
               f"{name}: no failed operation")
        if w["mode"] == "simulate":
            expect(a["solver.steps"] == W.path_steps(name),
                   f"{name}: {a['solver.steps']} solver steps traced, "
                   f"{W.path_steps(name)} defined")
            substeps = W.path_steps(name) * 2         # n_substeps = 2
        else:       # one substep per kappa_max * dt <= 0.05, per horizon
            kappa_max = W.NU * w["lmax"] * (w["lmax"] + 1) + 0.1
            substeps = sum(math.ceil(float(t) * kappa_max / 0.05)
                           for t in w["t_list"].split(","))
        expect(a["ou.clock_substeps"] == substeps,
               f"{name}: {a['ou.clock_substeps']} clock substeps, "
               f"expected {substeps}")


def reference_check():
    import snse.cli
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as d:
        for name, key in (("verify-ou", "rows"), ("single-l64", "final_v_h")):
            path = os.path.join(d, "ref.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(W.config_text(name, W.REF_SEED))
            outdir = os.path.join(d, name)
            cfg = snse.cli.parse_config(path, mode=W.WORKLOADS[name]["mode"],
                                        output_dir=outdir)
            rc = snse.cli.run_experiment(cfg)
            ref = W.REFERENCE[name]
            good = W.check(name, outdir, rc, ref)
            expect(not good.failed, f"{name}: reference values match "
                                    f"{list(good.failed.values())[:1]}")
            moved = json.loads(json.dumps(ref))
            if key == "rows":
                moved["rows"]["ou_moment_t0.25"][0] *= 1 + 1e-6
            else:
                moved["final_v_h"][0] *= 1 + 1e-6
            bad = W.check(name, outdir, rc, moved)
            expect(bool(bad.failed) and bad.mismatch,
                   f"{name}: a reference moved by 1e-6 is caught")


def bare_directory():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("verify-ou", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           f"without sources: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare_directory()
    reference_check()
    counts_repeat()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
