"""The benchmark's workloads, and the checks that their artifacts are right.

Every workload is a closed loop: one client process, one run at a time.
The seed given to the benchmark becomes the config's [noise] seed and the
seed of the random initial field v0.

single-l64    one high-resolution path, workers = 1, endpoint snapshot only.
              Transform bound: both longitude lengths are prime (193 on the
              product grid, 257 on the L4 grid) and the Legendre tables are
              larger than L2.
ensemble-l12  16 cheap paths on 2 worker processes, a snapshot every 10
              steps.  Overhead bound: many small per-m products, per-path
              summability checks, OU steps, the process pool, snapshot I/O.
verify-ou     Monte-Carlo check of the stochastic-convolution moment bound,
              10000 samples.  No transform and no ledger: stable-clock draws
              and the clock recursion only.  Horizons are short enough for
              several runs within one measured interval.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct

import numpy as np

# The warm-up run of every benchmark run uses this seed and is compared
# with REFERENCE below; the measured runs use the seed given on the
# command line.
REF_SEED = 1

_MODEL = """\
[model]
lmax = {lmax}
nu = 0.5
omega = 2.0
alpha = 0.1

[noise]
beta = 1.5
sigma = power:gamma=2.0
n_substeps = 2
seed = {seed}
"""

_SIMULATE = """\
[run]
n_paths = {n_paths}
workers = {workers}
snapshot_every = {snapshot_every}

""" + _MODEL + """
[time]
dt = 0.01
t_end = {t_end}
scheme = imex_heun

[initial]
v0 = random:decay=2.5,norm=1.0,seed={seed}
f = mode:l=3,m=1,amp=0.1
"""

_VERIFY_OU = """\
[run]
n_paths = 10000

""" + _MODEL + """
[verify]
p = 1.0
t = {t_list}
"""

WORKLOADS = {
    "single-l64": dict(mode="simulate", lmax=64, n_paths=1, workers=1,
                       snapshot_every=0, t_end="0.2", n_steps=20),
    "ensemble-l12": dict(mode="simulate", lmax=12, n_paths=16, workers=2,
                         snapshot_every=10, t_end="0.4", n_steps=40),
    "verify-ou": dict(mode="verify-ou", lmax=12, t_list="0.1,0.25,0.5"),
}

DIAGNOSTICS_HEADER = "t,norm_H,norm_V,norm_DA,norm_L4_u,int_V2,int_bvvz,int_Fv"
NU = 0.5

# Tolerances of the comparison with REFERENCE and of the internal
# consistency checks.  They absorb round-off (a different FFT length or a
# fused energy ledger moves the last digits) and still catch a wrong result.
RTOL_STATE = 1e-9        # final |v|_H per path, checks.csv lhs/rhs/ratio
ATOL_RESIDUAL = 1e-8     # energy residual, in units of |v0|_H^2 = 1
RTOL_REPORT_NORM = 1e-5  # report.txt prints |v|_H with 6 significant digits
RTOL_REPORT_RESID = 1e-3  # ... and the residual with 4

# Values at REF_SEED, recorded at the commit that added the benchmark.
# simulate: final |v|_H and energy residual per path; verify-ou: checks.csv
# rows (lhs, rhs, ratio).  The rhs column of verify-ou does not depend on
# the seed, so every run is checked against it.
REFERENCE = {
    "single-l64": {
        "final_v_h": [0.6781767809132382],
        "residual": [0.12575232666966665],
    },
    "ensemble-l12": {
        "final_v_h": [
            0.4491000026203512, 0.4531672346736587, 0.4473155168975073,
            0.4537747420077732, 0.44403421972327956, 0.4468571186419633,
            0.4601093294280672, 0.45956678284696906, 0.45964022582049313,
            0.45181568022365465, 0.43555051596857086, 0.4666638552749703,
            0.44425155613336764, 0.45397939777189633, 0.459745100028176,
            0.4512758522905213],
        "residual": [
            0.004438416750696434, 0.00443530835219403, 0.004439586142406096,
            0.004438229761179696, 0.004436695828653563, 0.004381228143731063,
            0.004439787305667978, 0.004439040696759856, 0.004441587804493949,
            0.004437944490441678, 0.004436310363464563, 0.004439973891405213,
            0.00443857752553576, 0.004440749950543726, 0.004438917731390095,
            0.004438944363041521],
    },
    "verify-ou": {"rows": {
        "ou_moment_t0.1":
            [0.5048113723789732, 0.6092398675379282, 0.8285921510997409],
        "ou_moment_t0.25":
            [0.8434532660175027, 0.9957228852169757, 0.8470763086194486],
        "ou_moment_t0.5":
            [1.164394524791169, 1.3533132386484363, 0.8604028184591308],
        "bound_alpha_monotone":
            [0.6072306325150797, 1.1222004947252198, 0.5411070796789884],
    }},
}


def config_text(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    if w["mode"] == "simulate":
        return _SIMULATE.format(seed=seed, **w)
    return _VERIFY_OU.format(seed=seed, **w)


def operations(name: str) -> int:
    """Operations of one run: paths (simulate) or checks.csv rows."""
    w = WORKLOADS[name]
    if w["mode"] == "simulate":
        return w["n_paths"]
    return len(w["t_list"].split(",")) + 1


def path_steps(name: str) -> int | None:
    """Solver steps over all paths in one simulate run; None for verify-ou,
    which takes no solver step."""
    w = WORKLOADS[name]
    if w["mode"] != "simulate":
        return None
    return w["n_paths"] * w["n_steps"]


def snapshots_per_path(name: str) -> int:
    w = WORKLOADS[name]
    every, n = w["snapshot_every"], w["n_steps"]
    if every == 0:
        return 1
    return n // every + 1 + (1 if n % every else 0)


# ---------------------------------------------------------------------------
# Reading artifacts
# ---------------------------------------------------------------------------

def artifact_digest(outdir: str) -> tuple[str, int]:
    """sha256 over every file name and content, and the total byte count."""
    h = hashlib.sha256()
    total = 0
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            blob = fh.read()
        h.update(fname.encode() + b"\0" + blob)
        total += len(blob)
    return h.hexdigest(), total


def _snapshot_v_norm(path: str, lmax: int) -> float:
    """|v|_H from a snapshot file, decoded here independently of snse."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = 4 + struct.calcsize("<IIBd")
    nm1 = (lmax + 1) * (lmax + 2) // 2 - 1
    if blob[:4] != b"SNS2" or len(blob) != head + 32 * nm1:
        raise ValueError(f"{os.path.basename(path)}: bad snapshot layout")
    if struct.unpack_from("<IIBd", blob, 4)[1] != lmax:
        raise ValueError(f"{os.path.basename(path)}: wrong lmax")
    v = np.frombuffer(blob, dtype="<f8", count=2 * nm1, offset=head)
    ls = np.concatenate([np.full(l + 1, l) for l in range(1, lmax + 1)])
    ms = np.concatenate([np.arange(l + 1) for l in range(1, lmax + 1)])
    weight = np.where(ms == 0, 1.0, 2.0) * ls * (ls + 1.0)
    return float(np.sqrt((weight * (v[0::2] ** 2 + v[1::2] ** 2)).sum()))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


class Outcome:
    """Failed operations of one run, with the reason of each."""

    def __init__(self, n_ops: int):
        self.failed: dict = {}           # operation index -> reason
        self.mismatch = False            # an output is wrong, not just FAIL
        self.n_ops = n_ops
        self.observed: dict = {}

    def fail(self, op, reason: str, mismatch: bool = True):
        ops = range(self.n_ops) if op is None else [op]
        for i in ops:
            self.failed.setdefault(i, reason)
        self.mismatch = self.mismatch or mismatch


def _result_line(outdir: str, out: Outcome) -> tuple[list, bool]:
    path = os.path.join(outdir, "report.txt")
    if not os.path.exists(path):
        out.fail(None, "report.txt missing")
        return [], False
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    verdict = [l for l in lines if l.startswith("result: ")]
    if len(verdict) != 1:
        out.fail(None, "report.txt has no single result line")
        return lines, False
    return lines, verdict[0] == "result: PASS"


_PATH_LINE = re.compile(r"path\s+(\d+): t = \S+\s+\|v\|_H = (\S+)\s+.*"
                        r"energy residual = (\S+)\s+\[(.*)\]$")


def check_simulate(name: str, outdir: str, rc: int,
                   reference: dict | None) -> Outcome:
    w = WORKLOADS[name]
    n_paths, n_steps, lmax = w["n_paths"], w["n_steps"], w["lmax"]
    out = Outcome(n_paths)
    lines, passed = _result_line(outdir, out)
    status = {}
    for line in lines:
        m = _PATH_LINE.match(line)
        if m:
            status[int(m.group(1))] = (float(m.group(2)), float(m.group(3)),
                                       m.group(4))
    if sorted(status) != list(range(n_paths)):
        out.fail(None, "report.txt does not list every path")
        return out
    for i, (_, _, st) in status.items():
        if st != "ok":
            out.fail(i, f"path {i}: {st}", mismatch=False)
    if rc != 0 and not out.failed:
        out.fail(None, f"exit status {rc} without a failed path")
    if passed != (rc == 0):
        out.fail(None, f"verdict {'PASS' if passed else 'FAIL'} with exit {rc}")

    with open(os.path.join(outdir, "diagnostics.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if rows[0] != DIAGNOSTICS_HEADER:
        out.fail(None, "diagnostics.csv header changed")
        return out
    table = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    if table.shape != (n_paths * (n_steps + 1), 8):
        out.fail(None, f"diagnostics.csv has {table.shape[0]} rows, expected "
                       f"{n_paths * (n_steps + 1)}")
        return out
    if not np.all(np.isfinite(table)):
        out.fail(None, "diagnostics.csv has non-finite values")

    snaps = sorted(f for f in os.listdir(outdir) if f.endswith(".bin"))
    per_path = snapshots_per_path(name)
    if len(snaps) != n_paths * per_path:
        out.fail(None, f"{len(snaps)} snapshots, expected {n_paths * per_path}")
        return out

    final, resid = [], []
    for i in range(n_paths):
        block = table[i * (n_steps + 1):(i + 1) * (n_steps + 1)]
        h, v2, b, fv = block[:, 1], block[:, 5], block[:, 6], block[:, 7]
        final.append(float(h[-1]))
        resid.append(float(h[-1] ** 2 - h[0] ** 2 + 2 * NU * v2[-1]
                           - 2 * b[-1] - 2 * fv[-1]))
        last = os.path.join(outdir, f"path{i:04d}_snap{per_path - 1:04d}.bin")
        rep_h, rep_resid, _ = status[i]
        try:
            snap_h = _snapshot_v_norm(last, lmax)
        except (OSError, ValueError) as err:
            out.fail(i, str(err))
            continue
        if not _close(snap_h, final[i], RTOL_STATE):
            out.fail(i, f"path {i}: |v|_H {snap_h!r} in the endpoint snapshot, "
                        f"{final[i]!r} in diagnostics.csv")
        if not _close(rep_h, final[i], RTOL_REPORT_NORM):
            out.fail(i, f"path {i}: report |v|_H {rep_h} != {final[i]!r}")
        if not _close(rep_resid, resid[i], RTOL_REPORT_RESID, 1e-15):
            out.fail(i, f"path {i}: report residual {rep_resid} != {resid[i]!r}")
        if reference is not None:
            ref_h, ref_r = reference["final_v_h"][i], reference["residual"][i]
            if not _close(final[i], ref_h, RTOL_STATE):
                out.fail(i, f"path {i}: final |v|_H {final[i]!r}, "
                            f"reference {ref_h!r}")
            if not _close(resid[i], ref_r, 0.0, ATOL_RESIDUAL):
                out.fail(i, f"path {i}: energy residual {resid[i]!r}, "
                            f"reference {ref_r!r}")
    out.observed = {"final_v_h": final, "residual": resid}
    return out


def check_verify_ou(name: str, outdir: str, rc: int,
                    reference: dict | None) -> Outcome:
    t_list = WORKLOADS[name]["t_list"].split(",")
    names = [f"ou_moment_t{float(t):g}" for t in t_list]
    names.append("bound_alpha_monotone")
    out = Outcome(len(names))
    lines, passed = _result_line(outdir, out)
    with open(os.path.join(outdir, "checks.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if rows[0] != "check,lhs,rhs,ratio,input_id" or \
            [r.split(",")[0] for r in rows[1:]] != names:
        out.fail(None, "checks.csv rows differ from the expected checks")
        return out
    verdicts = dict(l.split(": ", 1) for l in lines if l.split(":")[0] in names)
    observed = {}
    for i, row in enumerate(rows[1:]):
        check, lhs, rhs, ratio = row.split(",")[:4]
        lhs, rhs, ratio = float(lhs), float(rhs), float(ratio)
        observed[check] = [lhs, rhs, ratio]
        if verdicts.get(check) != "PASS":
            out.fail(i, f"{check}: {verdicts.get(check, 'no verdict')} "
                        f"(ratio {ratio!r})", mismatch=False)
        if not (math.isfinite(lhs) and rhs > 0 and
                _close(ratio, lhs / rhs, 1e-12)):
            out.fail(i, f"{check}: ratio {ratio!r} != lhs/rhs")
        ref = REFERENCE[name]["rows"].get(check)
        if ref is not None and not _close(rhs, ref[1], RTOL_STATE):
            out.fail(i, f"{check}: bound {rhs!r}, reference {ref[1]!r}")
        if reference is not None:
            for k, col in enumerate(("lhs", "rhs", "ratio")):
                if not _close(observed[check][k], reference["rows"][check][k],
                              RTOL_STATE):
                    out.fail(i, f"{check}: {col} {observed[check][k]!r}, "
                                f"reference {reference['rows'][check][k]!r}")
    rows_pass = all(verdicts.get(c) == "PASS" for c in names)
    if passed != rows_pass or passed != (rc == 0):
        out.fail(None, f"verdict {'PASS' if passed else 'FAIL'} disagrees "
                       f"with the checks (exit {rc})")
    out.observed = {"rows": observed}
    return out


def check(name: str, outdir: str, rc: int, reference: dict | None) -> Outcome:
    """Check one run's artifacts; reference is REFERENCE[name] for the
    warm-up run at REF_SEED, else None."""
    if WORKLOADS[name]["mode"] == "simulate":
        return check_simulate(name, outdir, rc, reference)
    return check_verify_ou(name, outdir, rc, reference)
