"""crpencils benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass runs the workload's whole job
list in a fresh interpreter (worker.py), so the builders' lru_caches start
cold; passes repeat until --seconds have gone by, and every metric is the
median over the passes.  --trace 0 reports the end-to-end metrics; extra
set-up-only passes give setup_s at least SETUP_SAMPLES samples.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Jobs and failures are those of all passes.
Details of every pass go to perfbench/out/<workload>-trace<0|1>.json, and
the spans of the last traced pass to perfbench/out/<workload>-spans.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("construct", "certify", "rnd")
MIN_PASSES = 2  # a fixed floor, so a slow first pass does not end the run
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170  # the whole run, children included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "exhaustive_pts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_cells": "count",
                   "_bytes": "bytes", "_yield": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(args, started: float, traced: bool = False,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", str(OUT / f"{args.workload}-spans.jsonl")]
    timeout = TIME_LIMIT_S - (monotonic() - started)
    if timeout <= 0:
        raise RuntimeError(f"no time left for another pass within {TIME_LIMIT_S} s")
    cmd += ["--spawned-at", repr(monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crpencils").is_dir():
        print(f"error: no crpencils sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    started = monotonic()
    passes: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            res = run_pass(args, started, traced=traced)
            res["traced"] = traced
            passes.append(res)
            if len(passes) >= MIN_PASSES and monotonic() - started >= args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(args, started, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    failures = [j for j in jobs if j["error"]]
    if args.trace:
        metrics = {
            name: (statistics.median(p["layers"][name] for p in traced), layer_unit(name))
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain), "s")
    else:
        metrics = {
            name: (statistics.median(setups if name == "setup_s" else
                                     [p[name] for p in plain]), unit)
            for name, unit in END_TO_END.items()
        }

    env = dict(passes[0]["env"], commit=git_commit(), seed=args.seed,
               workload=args.workload, passes=len(passes), setup_samples=len(setups))
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "passes": passes}, indent=1) + "\n")
    for job in failures:
        print(f"FAILED {job['id']}: {job['error']}", file=sys.stderr)

    print("# " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    raw = [p["raw_wall_s"] for p in plain]
    print(f"{'raw wall_s (not normalized)':34s} {statistics.median(raw):>16.6f} s")
    print(f"{'failed_ratio':34s} {len(failures) / len(jobs):>16.6f} "
          f"({len(failures)} of {len(jobs)} jobs)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
