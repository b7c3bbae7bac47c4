#!/usr/bin/env python3
"""Time crpencils on this tree and, in alternation, on another checkout.

    python3 scripts/time_pairs.py --probe ranks --parent ../crpencils-parent --rounds 3

Each round runs one fresh interpreter per tree, this tree first in even
rounds and the other first in odd ones, with BLAS and OpenMP held to one
thread and PYTHONPATH dropped; it refuses a crpencils imported from outside
its tree's src/.  A case's time is the fastest of --repeats calls; the
table gives its range over the rounds in each tree and, with --parent, the
ratio of the medians, this tree over the other.  One call of a case is:

ranks, after a warm-up call and with its minor faults: analysis.ranks_at,
  at DEFAULT_PRIME unless named otherwise, on sp6-F7, all of P^5(F_7) on
  the 14x14 Sp(6) wedge-square pencil; fixture-F5, all of P^5(F_5) on the
  sp6_wedge2 fixture; adjoint-8, 37 random points of the 56x63 adjoint
  pencil; random-512x252 and random-252x512, one random matrix alone;
  gl-v9-240x45, 12 random points of GL (2) -> (2,1) at v=9; and
  so-hook-6-512x252 and so-hook-6-252x512, 4 random points of the SO file
  and of its transpose.  koszul-3-9-kernels is analysis._kernels of the
  126x84 Koszul Lambda^3 -> Lambda^4 pencil of C^9 at 22 random points.
  The SO file is what `crpencils build so --mu 3,1,1 --nu 3,2,1 --N 6`
  writes, once per run, from the first worker's tree, this tree.
equivariance: pencils.check_equivariance with its equivariance_data cache
  cleared, on gl-22-221-5, gl-2-21-7 and sp-11-111-6, the certify
  workload's transitivity pencils (certify-3 is their sum), and
  so-311-321-5, the SO (3,1,1) -> (3,2,1) hook at m=5, each built once so
  that its modules are realized, as in `crpencils verify`; and
  so-311-321-6-file, the SO file, with the module caches cleared too.
realize: each module realization behind the construct workload's records,
  schur_module, symplectic_module or orthogonal_module with the three
  module caches cleared, named by group, partition and dimension
  (so-311-5 is orthogonal_module((3, 1, 1), 5)); all-10 is their sum.
catalog: `python -m crpencils.cli catalog --filter <id> --format json` in
  a fresh process for each entry, named by its id; all-24 runs all 24.
rnd: analysis.rnd at seed 0 on the rnd workload's six pencils, each built
  once, named by builder and arguments; the first call also finds the
  pencil's torus, which it caches.
cli: in fresh processes, per record of scripts/build_examples.py: `build
  <name>` to stdout, and `sampled <name>` and `transitivity <name>`, its
  verify in each mode; `import <module>`, each crpencils module's -X
  importtime cumulative time under `import crpencils.cli`.

Exit 1 when a check fails in either tree, or a pinned output differs
between them.  The checks: check_equivariance is True; each catalog record
passes, with details; each command exits 0, but transitivity refuses the
so, spin and adjoint examples with exit 2.  The pins: the ranks and
kernels, each realized span (its scaled batch, scales and pivots), the
catalog details, each rnd verdict and sha256 of repr(space.basis) (not its
samples_used), and each command's stdout and exit code.
"""
import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BUILT = [  # the first three are certify's
    ("gl-22-221-5", {"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 5}),
    ("gl-2-21-7", {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 7}),
    ("sp-11-111-6", {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}),
    ("so-311-321-5", {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5}),
]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=lambda a: a.tolist()).encode()).hexdigest()


def timed(call, repeats, reset=lambda: None):
    """(fastest ms, median minor faults, last result) of repeats calls."""
    times, faults = [], []
    for _ in range(repeats):
        reset()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        result = call()
        times.append(perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(times) * 1e3, statistics.median(faults), result


def fresh(root: Path, args, cwd: Path):
    """A call that runs `python args` in a new interpreter on root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return lambda: subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                                  capture_output=True, text=True)


def so_hook_6(root: Path, tmp: Path):
    from crpencils import catalog

    path = tmp / "so-311-321-6.json"
    if not path.exists():
        argv = ["build", "so", "--mu", "3,1,1", "--nu", "3,2,1", "--N", "6", "--out", str(path)]
        fresh(root, ["-m", "crpencils.cli", *argv], tmp)()
    return catalog.loads_pencil(path.read_text())[0]


def probe_ranks(root: Path, repeats: int, tmp: Path):
    import numpy as np
    from crpencils import analysis, catalog
    from crpencils.linalg import DEFAULT_PRIME as P
    from crpencils.pencils import Pencil

    def projective(s, p):
        return np.concatenate(list(analysis.projective_blocks(s, p, analysis.EXHAUSTIVE_BLOCK)))

    def random_matrix(rows, cols, seed):
        rng = random.Random(seed)
        coeffs = tuple((0, r, c, x) for r in range(rows) for c in range(cols)
                       if (x := rng.randrange(P)))
        return Pencil(1, cols, rows, coeffs, 1, ("x",))

    def drawn(pencil, count):
        return analysis.random_points(random.Random(1), count, pencil.nvars, P)

    def run(cases):
        for name, pencil, points, prime, f in cases:
            stacked = pencil.coeff_array_modp(prime)
            f(pencil, points, prime, stacked)
            ms, faults, out = timed(lambda: f(pencil, points, prime, stacked), repeats)
            # a rank, or the dimensions of a kernel and a cokernel
            seen = sorted({x if isinstance(x, int) else tuple(map(len, x)) for x in out})
            yield dict(case=name, ms=ms, pin=digest(out), note=f"{len(points)} points {seen}",
                       faults=faults)

    sp6 = catalog.build_from_params({"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6})
    adjoint = catalog.build_from_params({"kind": "adjoint", "a": 8})
    gl9 = catalog.build_from_params({"kind": "gl", "mu": [2], "nu": [2, 1], "v": 9})
    one = np.ones((1, 1), dtype=np.int64)
    yield from run([
        ("sp6-F7", sp6, projective(6, 7), 7, analysis.ranks_at),
        ("fixture-F5", catalog.fixture_parse("sp6_wedge2"), projective(6, 5), 5, analysis.ranks_at),
        ("adjoint-8", adjoint, drawn(adjoint, 37), P, analysis.ranks_at),
        ("random-512x252", random_matrix(512, 252, 1), one, P, analysis.ranks_at),
        ("random-252x512", random_matrix(252, 512, 2), one, P, analysis.ranks_at),
        ("gl-v9-240x45", gl9, drawn(gl9, 12), P, analysis.ranks_at),
    ])
    # built only now: after the SO hook, the six cases above fault in no fresh
    # pages per call and run faster (random-512x252 13-14 ms instead of 16-17)
    hook = so_hook_6(root, tmp)
    hook_t = Pencil(hook.nvars, hook.target_dim, hook.source_dim,
                    tuple(sorted((v, c, r, x) for v, r, c, x in hook.coeffs)), hook.denom,
                    hook.var_labels)
    koszul = catalog.build_from_params({"kind": "koszul", "k": 3, "v": 9})
    yield from run([
        ("so-hook-6-512x252", hook, drawn(hook, 4), P, analysis.ranks_at),
        ("so-hook-6-252x512", hook_t, drawn(hook, 4), P, analysis.ranks_at),
        ("koszul-3-9-kernels", koszul, drawn(koszul, 22), P,
         lambda *args: list(analysis._kernels(*args))),
    ])


def probe_equivariance(root: Path, repeats: int, tmp: Path):
    from crpencils import catalog, modules, pencils

    caches = (pencils.equivariance_data, modules.schur_module, modules.symplectic_module,
              modules.orthogonal_module)
    cases = [(name, catalog.build_from_params(record), caches[:1]) for name, record in BUILT]
    cases.append(("so-311-321-6-file", so_hook_6(root, tmp), caches))
    rows = []
    for name, pencil, cleared in cases:
        ms, faults, ok = timed(lambda: pencils.check_equivariance(pencil), repeats,
                               lambda: [cache.cache_clear() for cache in cleared])
        # the generators: the first action's variables, or the older per-generator records
        data = pencils.equivariance_data(pencil.spec)
        rows.append((ms, ok, faults, getattr(data[0], "nvars", len(data))))
        yield dict(case=name, ms=ms, ok=ok, note=f"{rows[-1][3]} generators", faults=faults)
    ms, ok, faults, gens = zip(*rows[:3])
    yield dict(case="certify-3", ms=sum(ms), ok=all(ok), note=f"{sum(gens)} generators",
               faults=sum(faults))


# the modules construct's records realize: so, gl, gl, sp and so; its adjoint,
# spin and Koszul records realize none
REALIZED = [("so", (3, 1, 1), 5), ("so", (3, 2, 1), 5), ("gl", (2, 1, 1), 6),
            ("gl", (2, 1, 1, 1), 6), ("gl", (2, 2), 5), ("gl", (2, 2, 1), 5),
            ("sp", (2,), 6), ("sp", (2, 1), 6), ("so", (2,), 5), ("so", (2, 1), 5)]


def probe_realize(root: Path, repeats: int, tmp: Path):
    from crpencils import modules

    realize = {"gl": modules.schur_module, "sp": modules.symplectic_module,
               "so": modules.orthogonal_module}
    total = 0.0
    for kind, lam, n in REALIZED:
        ms, faults, mod = timed(lambda: realize[kind](lam, n), repeats,
                                lambda: [f.cache_clear() for f in realize.values()])
        span = mod.span
        batch = span.scaled_batch
        total += ms
        yield dict(case=f"{kind}-{''.join(map(str, lam))}-{n}", ms=ms, faults=faults,
                   pin=digest([batch.idx, batch.code, batch.coef, span.scales, span.pivots]),
                   note=f"dim {span.dim}")
    yield dict(case=f"all-{len(REALIZED)}", ms=total, note="sum of the fastest calls")


def probe_catalog(root: Path, repeats: int, tmp: Path):
    from crpencils import catalog

    ids = [e.entry_id for e in catalog.CATALOG]
    for case, glob in [*((i, i) for i in ids), (f"all-{len(ids)}", "*")]:
        argv = ["-m", "crpencils.cli", "catalog", "--filter", glob, "--format", "json"]
        ms, _, proc = timed(fresh(root, argv, tmp), repeats)
        recs = json.loads(proc.stdout or "[]")
        ok = (proc.returncode == 0 and len(recs) == (len(ids) if glob == "*" else 1)
              and all(r["status"] == "pass" and r["details"] for r in recs))
        yield dict(case=case, ms=ms, ok=ok, pin=digest([[r["id"], r["details"]] for r in recs]),
                   note=f"exit {proc.returncode}")


RND = [  # the rnd workload's pencils
    ("koszul-2-7", {"kind": "koszul", "k": 2, "v": 7}),
    ("gl-21-211-4", {"kind": "gl", "mu": [2, 1], "nu": [2, 1, 1], "v": 4}),
    ("koszul-2-6", {"kind": "koszul", "k": 2, "v": 6}),
    ("so-2-21-4", {"kind": "so", "mu": [2], "nu": [2, 1], "m": 4}),
    ("spin-5", {"kind": "spin", "n": 5}),
    ("gl-2-21-3", {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}),
]


def probe_rnd(root: Path, repeats: int, tmp: Path):
    from crpencils import analysis, catalog

    for name, record in RND:
        pencil = catalog.build_from_params(record)
        ms, faults, rep = timed(lambda: analysis.rnd(pencil, seed=0), repeats)
        basis = hashlib.sha256(repr(rep.space.basis).encode()).hexdigest()
        yield dict(case=name, ms=ms, faults=faults, pin=digest([rep.verdict, basis]),
                   note=f"{rep.verdict} dim {rep.space.dim}, {rep.samples_used} samples")


def build_argv(record: dict) -> list[str]:
    """`crpencils build` of a builder record: m is --N, and gl's v is --n plus 1."""
    argv = ["build", record["kind"]]
    for field, x in list(record.items())[1:]:
        if record["kind"] == "gl" and field == "v":
            field, x = "n", x - 1
        argv += [f"--{'N' if field == 'm' else field}",
                 ",".join(map(str, x)) if isinstance(x, list) else str(x)]
    return argv


def probe_cli(root: Path, repeats: int, tmp: Path):
    from build_examples import EXAMPLES

    for name, record in EXAMPLES:
        path = tmp / f"{name}.json"  # each worker builds it again before it verifies it
        for label, argv, expected in [
            ("build", build_argv(record), 0),
            ("sampled", ["verify", str(path)], 0),
            ("transitivity", ["verify", str(path), "--mode", "transitivity"],
             2 if record["kind"] in ("so", "spin", "adjoint") else 0),  # not transitive
        ]:
            ms, _, proc = timed(fresh(root, ["-m", "crpencils.cli", *argv], tmp), repeats)
            if label == "build":
                path.write_text(proc.stdout)
            yield dict(case=f"{label} {name}", ms=ms, ok=proc.returncode == expected,
                       pin=digest([proc.returncode, proc.stdout]), note=f"exit {proc.returncode}")
    call = fresh(root, ["-X", "importtime", "-c", "import crpencils.cli"], tmp)
    runs = [call() for _ in range(repeats)]
    # stderr lines "import time: <self us> | <cumulative us> | <module>"
    times = [(module.strip(), int(cumulative) / 1e3) for proc in runs
             for *_, cumulative, module in (line.split("|") for line in proc.stderr.splitlines())
             if module.strip().split(".")[0] == "crpencils"]
    for module in dict.fromkeys(m for m, _ in times):
        yield dict(case=f"import {module}", ms=min(t for m, t in times if m == module),
                   ok=all(proc.returncode == 0 for proc in runs))


PROBES = {"ranks": probe_ranks, "equivariance": probe_equivariance, "realize": probe_realize,
          "catalog": probe_catalog, "rnd": probe_rnd, "cli": probe_cli}


def report(results: dict, sides: list[str]) -> int:
    """Print the table of {case: {tree: [record per round]}}; 1 when a
    check failed in either tree or a pinned output differs between them."""
    print(f"{'case':<32} {'tree':<7} {'ms':>17} {'ratio':>6} {'faults':>17}  note")
    for case, by_side in results.items():
        for side in (side for side in sides if side in by_side):
            recs = by_side[side]
            ms = sorted(r["ms"] for r in recs)
            parent = [r["ms"] for r in by_side.get("parent", [])] if side == "this" else []
            ratio = f"{statistics.median(ms) / statistics.median(parent):.2f}" if parent else ""
            faults = sorted(r["faults"] for r in recs if r["faults"] is not None)
            span = f"{faults[0]:>8g}-{faults[-1]:<8g}" if faults else ""
            print(f"{case:<32} {side:<7} {ms[0]:>8.2f}-{ms[-1]:<8.2f} {ratio:>6} {span:>17}  "
                  f"{recs[0]['note']}")
    rounds = {case: [r for rs in by_side.values() for r in rs] for case, by_side in results.items()}
    failed = [case for case, recs in rounds.items() if not all(r["ok"] for r in recs)]
    differ = [case for case, recs in rounds.items() if len({r["pin"] for r in recs}) > 1]
    for what, cases in (("the check failed on", failed),
                        ("the pinned outputs differ between the trees on", differ)):
        if cases:
            print(f"{what}: {', '.join(cases)}", file=sys.stderr)
    return 1 if failed or differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--probe", choices=PROBES, required=True)
    ap.add_argument("--parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)  # tree, run dir
    args = ap.parse_args(argv)
    if args.worker:  # print one JSON record per case
        root, tmp = args.worker[0].resolve(), args.worker[1]
        sys.path.insert(0, str(root / "src"))
        import crpencils
        src = (root / "src" / "crpencils").resolve()
        if src not in {Path(p).resolve() for p in crpencils.__path__}:
            raise SystemExit(f"crpencils was imported from {list(crpencils.__path__)}, not {src}")
        for rec in PROBES[args.probe](root, args.repeats, tmp):
            print(json.dumps({"ok": True, "pin": None, "note": "", "faults": None, **rec}),
                  flush=True)
        return 0
    sides = {"this": ROOT, **({"parent": args.parent.resolve()} if args.parent else {})}
    env = {k: x for k, x in os.environ.items() if k != "PYTHONPATH"} | dict.fromkeys(THREADS, "1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", args.probe,
           "--repeats", str(args.repeats)]
    results: dict[str, dict[str, list]] = {}
    with tempfile.TemporaryDirectory(prefix="crpencils-pairs-") as tmp:
        for i in range(args.rounds):
            for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
                out = subprocess.run([*cmd, "--worker", str(sides[side]), tmp], env=env,
                                     check=True, stdout=subprocess.PIPE, text=True).stdout
                for line in out.splitlines():
                    rec = json.loads(line)
                    results.setdefault(rec["case"], {}).setdefault(side, []).append(rec)
    return report(results, list(sides))


if __name__ == "__main__":
    sys.exit(main())
