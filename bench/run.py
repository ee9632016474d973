"""snse benchmark: one workload, one seed, one measured interval.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in workloads.py.
With --trace 0 it prints the end-to-end metrics:

  setup_s           median over fresh interpreters of importing snse,
                    parse_config, the OperatorContext and the transform
                    tables of the product and L4 grids (setup_probe.py)
  wall_s            median time of one run_experiment with warm caches,
                    artifacts included
  peak_rss_mb       peak resident memory of the snse process and its pool
                    workers

and prints, for the simulate workloads, path_steps_per_s: solver steps over
all paths divided by wall_s.  It is not a JSON metric because it carries
nothing wall_s does not.

With --trace 1 it prints the per-layer metrics of spans.py instead.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers for people,
with sample counts, tail percentiles, failures and the environment.

Every process it starts runs with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1, src/ on PYTHONPATH and TMPDIR inside the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads as W  # noqa: E402

SETUP_PROBES = 8          # timed fresh interpreters, after one untimed
BUDGET_S = 170            # the whole run ends within this many seconds
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _child(cmd: list, env: dict, deadline: float) -> str | None:
    """Run cmd in its own process group; kill the group at the deadline.
    Returns stdout, or None on a timeout or a nonzero exit."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # with its pool workers
        proc.communicate()
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"exit {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    return stdout


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(loadavg: tuple) -> dict:
    cpu = [l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines()
           if l.startswith("model name")]
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level").strip(), _read(f"{d}/type").strip()
        caches[f"L{level} {kind}"] = _read(f"{d}/size").strip()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest, lines = hashlib.sha256(), 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            blob = fh.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu[0] if cpu else None,
        "caches": caches,
        "loadavg_at_start": list(loadavg),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it.  Below 20
    samples it lies under the median."""
    n = len(samples)
    rank = n - 10
    if rank < 1:
        return f"n={n}; no percentile has ten samples beyond it"
    return f"p{100 * rank // n}={sorted(samples)[rank - 1]:.6g}, n={n}"


def main() -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "snse", "cli.py")):
        print(f"snse sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ, **THREADS, TMPDIR=work, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p))
    try:
        return measure(args, work, env, deadline, loadavg)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str, env: dict, deadline: float, loadavg) -> int:
    name = args.workload
    mode = W.WORKLOADS[name]["mode"]
    config = os.path.join(work, "setup.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(W.config_text(name, args.seed))
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
             config, mode]
    setup = []

    def probes(n: int) -> bool:
        for _ in range(n):
            out = _child(probe, env, deadline)
            if out is None:
                return False
            setup.append(json.loads(out.splitlines()[-1])["setup_s"])
        return True

    result_path = os.path.join(work, "result.json")
    runner = [sys.executable, os.path.join(BENCH, "runner.py"),
              "--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", work, "--out", result_path]
    # the first probe compiles snse and warms the file cache: not counted;
    # the counted ones are split around the measured runs, so that a slow
    # drift of the machine moves setup_s and wall_s alike
    if args.trace:
        ok = _child(runner, env, deadline) is not None
    else:
        ok = probes(1)
        setup.clear()
        ok = (ok and probes(SETUP_PROBES // 2)
              and _child(runner, env, deadline) is not None
              and probes(SETUP_PROBES - SETUP_PROBES // 2))
    if not ok:
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    print("env " + json.dumps({**environment(loadavg), **res["env"]}))
    walls = res["wall_s"]
    print(f"{name}: closed loop, 1 client, seed {args.seed}, "
          f"{len(walls) + len(res.get('traced_wall_s', []))} measured runs "
          f"and 1 reference run")
    share = res["failed"] / res["attempted"]
    print(f"  failed_share {res['failed']}/{res['attempted']} = {share:.4g}"
          f"  correct={res['correct']}")
    for reason in res["reasons"]:
        print(f"  failure: {reason}")

    if args.trace:
        metrics = {m: {"value": v, "unit": spans.PER_LAYER[m][0]}
                   for m, v in res["layers"].items()}
        for m, v in metrics.items():
            exact = "  (exact count)" if m in spans.COUNTS else ""
            print(f"  {m:40s} {v['value']:.6g} {v['unit']}{exact}")
        print(f"  tracing overhead from {len(res['traced_wall_s'])} traced "
              f"and {len(walls)} untraced runs")
        for target in res["missing_targets"]:
            print(f"  not traced (absent): {target}")
        for m in res["counts_vary"]:
            print(f"  count differs between runs of one seed: {m}")
    else:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup_s          median {metrics['setup_s']['value']:.6g} s"
              f"  ({tail(setup)})")
        print(f"  wall_s           median {wall:.6g} s  ({tail(walls)})")
        if res["path_steps"]:
            print(f"  path_steps_per_s {res['path_steps'] / wall:.6g} 1/s  "
                  f"({res['path_steps']} path-steps per run)")
        print(f"  peak_rss_mb      {res['peak_rss_mb']:.6g} MB")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
