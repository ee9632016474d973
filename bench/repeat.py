"""Run every workload of BENCHMARK.json at ten seeds and report each
end-to-end metric's median and quartile spread against its bound.

usage: python3 bench/repeat.py [--out FILE]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  A metric whose spread exceeds its bound
in BENCHMARK.json is marked UNRESOLVED, and the exit status is then 1.
--out writes the runs and the summary as JSON together with one traced run
per workload (the form of the recorded baselines).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402

SEEDS = range(1, 11)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its environment record and its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
        check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[0][len("env "):]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    record = {"seconds": SPEC["run_seconds"], "workloads": {}}
    unresolved = False
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            env, res = run(name, seed, 0)
            runs.append({"seed": seed, **res})
            steps = W.path_steps(name)
            rate = (f"  path_steps_per_s="
                    f"{steps / res['metrics']['wall_s']['value']:.6g} 1/s"
                    if steps else "")
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={v['value']:.6g} {v['unit']}"
                for m, v in res["metrics"].items()) + rate
                + f"  failed_share={res['failed']}/{res['attempted']}"
                + ("" if res["correct"] else "  INCORRECT"), flush=True)
        summary = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread,
                                       "bound": metric["bound"]}
            over = spread > metric["bound"]
            unresolved = unresolved or over
            print(f"{name} {metric['name']}: median {med:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.4f}  bound "
                  f"{metric['bound']}{'  UNRESOLVED' if over else ''}")
        record["workloads"][name] = {"summary": summary, "runs": runs}
        record["env"] = env
        if args.out:                 # one traced run for the per-layer numbers
            record["workloads"][name]["traced"] = run(name, SEEDS[0], 1)[1]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
