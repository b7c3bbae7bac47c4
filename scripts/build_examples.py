#!/usr/bin/env python3
"""Build the headline example pencils, write them as JSON, and report ranks.

    python3 scripts/build_examples.py --outdir out/pencils
"""

import argparse
import pathlib
import sys

from crpencils.analysis import constant_rank_verdict, generic_rank
from crpencils.catalog import build_from_params, dumps_pencil

EXAMPLES = [
    ("gl_sym2_n2", {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}),
    ("gl_sym22_n3", {"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 4}),
    ("gl_hook_113", {"kind": "gl", "mu": [2, 1], "nu": [2, 1, 1], "v": 4}),
    ("koszul_2_6", {"kind": "koszul", "k": 2, "v": 6}),
    ("sp6_wedge2", {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}),
    ("so3_sym2", {"kind": "so", "mu": [2], "nu": [2, 1], "m": 3}),
    ("spin10", {"kind": "spin", "n": 5}),
    ("adjoint_a7", {"kind": "adjoint", "a": 7}),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/pencils")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, params in EXAMPLES:
        pencil = build_from_params(params)
        path = outdir / f"{name}.json"
        path.write_text(dumps_pencil(pencil, params), encoding="utf-8")
        if pencil.spec.transitive:
            rep = constant_rank_verdict(pencil, "transitivity",
                                        seed=args.seed)
            rank, verdict = rep.generic_rank, rep.verdict
        else:
            rank = generic_rank(pencil, trials=25, seed=args.seed)
            verdict = "sampled"
        print(f"{name:12s} {pencil.target_dim:3d}x{pencil.source_dim:<3d} "
              f"in {pencil.nvars:2d} vars  rank {rank:3d}  ({verdict})  "
              f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
