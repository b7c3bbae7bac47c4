#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and summarize it.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --workloads construct,certify,rnd --seed 2101 --out BENCH_21.json

Each side runs `perfbench/run.py --trace 0` for the `run_seconds` of
BENCHMARK.json from its own clean clone of its commit.  Pair i runs the
parent first when i is even and the change first when i is odd, and both
sides of pair i of the k-th workload use the seed --seed + 20 k + i (the
stride grows with --pairs beyond 20).  The output file gets the keys command, machine, pairing, commits, seeds, runs (one
record per run, in the order they ran) and summary: per workload and per
end-to-end metric of BENCHMARK.json, the quartiles of each side, the ratio
of the medians and the number of pairs the change won, ties counting for
neither side.  Other keys already in the file are kept.

A run record also holds raw_setup_s, the median over the run's passes of
the setup time before normalization by the machine's speed probe, read from
the run's perfbench/out/<workload>-trace0.json; the summary gives it a row
of its own after setup_s.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
RAW_SETUP = "raw_setup_s"


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json and its better direction."""
    return {m["name"]: m["better"] for m in benchmark()["end_to_end"]}


def quartiles(xs: list[float]) -> dict[str, float]:
    """Inclusive quartiles, numpy's linear percentiles; one run is all three."""
    if len(xs) == 1:
        return dict.fromkeys(("q1", "median", "q3"), xs[0])
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict[str, list[dict]]:
    """Per workload, one entry per metric over the pairs where both sides
    report it, with raw_setup_s after setup_s."""
    values: dict[tuple, float] = {}
    for r in runs:
        for name, m in ((r.get("result") or {}).get("metrics") or {}).items():
            values[r["workload"], r["pair"], r["side"], name] = m["value"]
        if RAW_SETUP in r:
            values[r["workload"], r["pair"], r["side"], RAW_SETUP] = r[RAW_SETUP]
    named = []
    for name, better in metrics.items():
        named.append((name, better))
        if name == "setup_s":
            named.append((RAW_SETUP, better))
    out: dict[str, list[dict]] = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        pairs = sorted({r["pair"] for r in runs if r["workload"] == w})
        rows = []
        for name, better in named:
            both = [(values[w, i, "parent", name], values[w, i, "change", name])
                    for i in pairs
                    if (w, i, "parent", name) in values and (w, i, "change", name) in values]
            if not both:
                continue
            parent, change = map(list, zip(*both))
            sign = 1 if better == "higher" else -1
            rows.append({
                "metric": name,
                "pairs": len(both),
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "change_wins": sum(sign * (c - p) > 0 for p, c in both),
            })
        out[w] = rows
    return out


def clone(rev: str, into: Path) -> tuple[Path, str]:
    """A clean clone of this repository at rev, and the commit's short hash."""
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)
    commit = subprocess.run(["git", "-C", str(into), "rev-parse", "--short", "HEAD"],
                            check=True, capture_output=True, text=True).stdout.strip()
    return into, commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run, or the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def raw_setup_median(trace: Path) -> Optional[float]:
    """The median raw_setup_s of the passes in a run's trace file, or None
    when the run wrote none."""
    try:
        return statistics.median(p[RAW_SETUP] for p in json.loads(trace.read_text())["passes"])
    except (OSError, ValueError, KeyError):  # no file, bad JSON or no passes
        return None


def measure(args) -> int:
    workloads = args.workloads.split(",")
    seconds = benchmark()["run_seconds"]
    stride = max(20, args.pairs)
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = clone(getattr(args, side), Path(tmp) / side)
        seeds = {}
        for k, w in enumerate(workloads):
            first_seed = args.seed + stride * k
            seeds[w] = f"{first_seed}-{first_seed + args.pairs - 1}"
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    checkout, commit = sides[side]
                    trace = checkout / "perfbench" / "out" / f"{w}-trace0.json"
                    trace.unlink(missing_ok=True)  # a failed run leaves no stale file
                    result = run_once(checkout, w, first_seed + i, seconds)
                    record = {"side": side, "workload": w, "pair": i, "first": order[0],
                              "seed": first_seed + i, "commit": commit, "result": result}
                    raw = raw_setup_median(trace)
                    if raw is not None:
                        record[RAW_SETUP] = raw
                    runs.append(record)
                    print(w, i, side, json.dumps(result.get("metrics", result))[:200],
                          file=sys.stderr, flush=True)
    doc.update({
        "command": f"python3 perfbench/run.py --workload <w> --seconds {seconds:g} "
                   "--trace 0 --seed <seed>",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {version('numpy')}",
        "pairing": "pair i runs parent first when i is even and change first when i is "
                   "odd; each side runs from its own clean clone of its commit",
        "commits": {side: commit for side, (_, commit) in sides.items()},
        "seeds": seeds,
        "summary": summarize(runs, end_to_end()),
        "runs": runs,
    })
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit measured as parent")
    ap.add_argument("--change", required=True, help="the commit measured as change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="construct,certify,rnd")
    ap.add_argument("--seed", type=int, default=0, help="first seed of the first workload")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    return measure(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
