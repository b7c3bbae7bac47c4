#!/usr/bin/env python3
"""Time the equivariance certificate, data plus check, on this tree and, in
alternation, on another checkout.

    python3 scripts/time_equivariance.py --parent ../crpencils-parent --rounds 3

Each round runs one fresh interpreter per tree, this tree first in even
rounds and the other first in odd ones, with BLAS and OpenMP held to one
thread.  A worker imports crpencils from its tree's src/, sets up every
case and times pencils.check_equivariance, which derives the data through
equivariance_data, --repeats times with that cache cleared before each
call; it reports the fastest call.  The cases:

  - gl-22-221-5, gl-2-21-7 and sp-11-111-6: the pencils of the three
    transitivity jobs of the certify workload, built once, so their modules
    are realized before the timed calls, as in `crpencils verify`;
    certify-3 is the sum of the three;
  - so-311-321-5: the SO (3,1,1) -> (3,2,1) hook at m=5, built once;
  - so-311-321-6-file: the same hook at m=6, read from the pencil file
    that this tree's `crpencils build` writes once per run; the module
    caches are cleared before each call as well, so module realization is
    timed with the data.

The table gives, per case and tree, the range over the rounds of the
fastest call, and with --parent the ratio of the medians over the rounds,
this tree over the other.  The script exits 1 when the check fails on a
case in either tree.  Only the standard library is used here; the workers
need numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BUILT = [
    ("gl-22-221-5", {"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 5}),
    ("gl-2-21-7", {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 7}),
    ("sp-11-111-6", {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}),
    ("so-311-321-5", {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5}),
]
CERTIFY = ("gl-22-221-5", "gl-2-21-7", "sp-11-111-6")
FILE_CASE = "so-311-321-6-file"
FILE_ARGV = ["build", "so", "--mu", "3,1,1", "--nu", "3,2,1", "--N", "6"]


def worker(root: Path, repeats: int, pencil_file: Path) -> None:
    """Print one JSON line per case: the fastest call in ms, the check's
    result and the number of generators."""
    sys.path.insert(0, str(root / "src"))
    import crpencils
    from crpencils import catalog, modules, pencils

    src = (root / "src" / "crpencils").resolve()
    if src not in {Path(p).resolve() for p in crpencils.__path__}:
        raise SystemExit(f"crpencils was imported from {list(crpencils.__path__)}, not {src}")
    realized = (modules.schur_module, modules.symplectic_module, modules.orthogonal_module)
    cases = [(name, catalog.build_from_params(record), ()) for name, record in BUILT]
    cases.append((FILE_CASE, catalog.loads_pencil(pencil_file.read_text())[0], realized))
    for name, pencil, caches in cases:
        times, ok = [], True
        for _ in range(repeats):
            for cache in (pencils.equivariance_data, *caches):
                cache.cache_clear()
            start = perf_counter()
            ok = pencils.check_equivariance(pencil) and ok
            times.append(perf_counter() - start)
        print(json.dumps({"case": name, "ms": min(times) * 1e3, "ok": ok,
                          "generators": len(pencils.equivariance_data(pencil.spec))}),
              flush=True)


def run_side(root: Path, repeats: int, pencil_file: Path) -> list[dict]:
    env = dict(os.environ, **dict.fromkeys(THREADS, "1"))
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
                          "--repeats", str(repeats), "--file", str(pencil_file)],
                         env=env, check=True, capture_output=True, text=True).stdout
    recs = [json.loads(line) for line in out.splitlines()]
    recs.append({"case": "certify-3", "ok": all(r["ok"] for r in recs if r["case"] in CERTIFY),
                 "ms": sum(r["ms"] for r in recs if r["case"] in CERTIFY),
                 "generators": sum(r["generators"] for r in recs if r["case"] in CERTIFY)})
    return recs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--file", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker.resolve(), args.repeats, args.file)
        return 0
    sides = {"this": ROOT}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    results: dict[tuple[str, str], list[dict]] = {}
    with tempfile.TemporaryDirectory(prefix="crpencils-equivariance-") as tmp:
        pencil_file = Path(tmp) / "so-311-321-6.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "crpencils.cli", *FILE_ARGV, "--out", str(pencil_file)],
                       env=env, check=True)
        for i in range(args.rounds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                for rec in run_side(sides[side], args.repeats, pencil_file):
                    results.setdefault((rec["case"], side), []).append(rec)
    print(f"{'case':<18} {'tree':<7} {'generators':>10} {'ms per call':>17} {'ratio':>6}")
    for case in dict.fromkeys(c for c, _ in results):
        for side in sides:
            recs = results[case, side]
            ms = sorted(r["ms"] for r in recs)
            ratio = ""
            if side == "this" and "parent" in sides:
                parent = statistics.median(r["ms"] for r in results[case, "parent"])
                ratio = f"{statistics.median(ms) / parent:.2f}"
            print(f"{case:<18} {side:<7} {recs[0]['generators']:>10} "
                  f"{ms[0]:>8.2f}-{ms[-1]:<8.2f} {ratio:>6}")
    failed = sorted({case for (case, _), recs in results.items() if not all(r["ok"] for r in recs)})
    if failed:
        print("the check failed on: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
