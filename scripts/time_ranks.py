#!/usr/bin/env python3
"""Time analysis.ranks_at and count its minor page faults per call, on this
tree and, in alternation, on another checkout.

    python3 scripts/time_ranks.py --parent ../crpencils-parent --rounds 3

Each round runs one fresh interpreter per tree, this tree first in even
rounds and the other first in odd ones, with BLAS and OpenMP held to one
thread.  A worker imports crpencils from its tree's src/, builds every
case, calls ranks_at once to warm up and then --repeats times, and reports
the fastest call and the median of the minor faults (getrusage ru_minflt)
each call took.  The table gives, per case and tree, the range over the
rounds of both.  The cases:

  - sp6-F7: all 19,608 points of P^5(F_7) on the Sp(6) wedge-square pencil
    (14x14), the exhaustive certify job's ranks;
  - fixture-F5: all 3,906 points of P^5(F_5) on the verbatim sp6_wedge2
    fixture;
  - adjoint-8: one stack, 37 random points of the 56x63 adjoint pencil at
    DEFAULT_PRIME;
  - random-512x252 and random-252x512: one random matrix of residues at
    DEFAULT_PRIME, as a one-variable pencil, eliminated alone;
  - gl-v9-240x45: 12 random points of the GL (2) -> (2,1) pencil at v=9.

Only numpy and the standard library are used.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cases():
    """(name, pencil, points, prime) of every case, built from the
    crpencils on sys.path."""
    import numpy as np
    from crpencils import analysis, catalog
    from crpencils.linalg import DEFAULT_PRIME
    from crpencils.pencils import Pencil

    def projective(s, p):
        return np.concatenate(list(analysis.projective_blocks(s, p, analysis.EXHAUSTIVE_BLOCK)))

    def random_matrix(rows, cols, seed):
        rng = random.Random(seed)
        coeffs = tuple((0, r, c, x) for r in range(rows) for c in range(cols)
                       if (x := rng.randrange(DEFAULT_PRIME)))
        return Pencil(1, cols, rows, coeffs, 1, ("x",))

    def drawn(pencil, count):
        return analysis.random_points(random.Random(1), count, pencil.nvars, DEFAULT_PRIME)

    sp6 = catalog.build_from_params({"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6})
    adjoint = catalog.build_from_params({"kind": "adjoint", "a": 8})
    gl9 = catalog.build_from_params({"kind": "gl", "mu": [2], "nu": [2, 1], "v": 9})
    fixture = catalog.fixture_parse("sp6_wedge2")
    return [
        ("sp6-F7", sp6, projective(6, 7), 7),
        ("fixture-F5", fixture, projective(6, 5), 5),
        ("adjoint-8", adjoint, drawn(adjoint, 37), DEFAULT_PRIME),
        ("random-512x252", random_matrix(512, 252, 1), np.ones((1, 1), dtype=np.int64),
         DEFAULT_PRIME),
        ("random-252x512", random_matrix(252, 512, 2), np.ones((1, 1), dtype=np.int64),
         DEFAULT_PRIME),
        ("gl-v9-240x45", gl9, drawn(gl9, 12), DEFAULT_PRIME),
    ]


def worker(root: Path, repeats: int) -> None:
    """Print one JSON line per case: the fastest call in ms, the median
    minor faults per call, the ranks met and the sha256 of all of them."""
    sys.path.insert(0, str(root / "src"))
    import crpencils
    from crpencils import analysis

    src = (root / "src" / "crpencils").resolve()
    if src not in {Path(p).resolve() for p in crpencils.__path__}:
        raise SystemExit(f"crpencils was imported from {list(crpencils.__path__)}, not {src}")
    for name, pencil, points, prime in cases():
        stacked = pencil.coeff_array_modp(prime)
        ranks = analysis.ranks_at(pencil, points, prime, stacked)
        times, faults = [], []
        for _ in range(repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            analysis.ranks_at(pencil, points, prime, stacked)
            times.append(perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps({"case": name, "ms": min(times) * 1e3,
                          "faults": statistics.median(faults),
                          "ranks": sorted(set(ranks)), "points": len(points),
                          "digest": hashlib.sha256(json.dumps(ranks).encode()).hexdigest()}),
              flush=True)


def run_side(root: Path, repeats: int) -> list[dict]:
    env = dict(os.environ, **dict.fromkeys(THREADS, "1"))
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
                          "--repeats", str(repeats)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker.resolve(), args.repeats)
        return 0
    sides = {"this": ROOT}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    results: dict[tuple[str, str], list[dict]] = {}
    for i in range(args.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            for rec in run_side(sides[side], args.repeats):
                results.setdefault((rec["case"], side), []).append(rec)
    print(f"{'case':<16} {'tree':<7} {'ms per call':>17} {'faults per call':>17}  ranks")
    for case in dict.fromkeys(c for c, _ in results):
        for side in sides:
            recs = results[case, side]
            ms = sorted(r["ms"] for r in recs)
            faults = sorted(r["faults"] for r in recs)
            print(f"{case:<16} {side:<7} {ms[0]:>8.2f}-{ms[-1]:<8.2f} "
                  f"{faults[0]:>8g}-{faults[-1]:<8g}  {recs[0]['ranks']}")
    mismatched = [c for c in dict.fromkeys(c for c, _ in results)
                  if len({r["digest"] for s in sides for r in results[c, s]}) > 1]
    if mismatched:
        print("ranks differ between the trees: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
