#!/usr/bin/env python3
"""Seeded fuzz of the command line on untrusted input: builder records and
pencil documents.

    python3 scripts/fuzz_inputs.py --seed 33 --examples 500
    python3 scripts/fuzz_inputs.py --examples 0    # the named cases alone

Standard library only: it runs `python -m crpencils.cli` from the source
tree of this checkout.  It prints its seed first, drawn from os.urandom when
--seed is not given, so a failing run can be repeated.

The named cases run first, each a fixed command that must exit with its own
code (2 or 3, the refusal): the records and files that once ran for minutes
or crashed.  Then each example is one of two kinds, in equal shares:
  - a builder record of a random kind, drawn at random (partitions of up to
    64 boxes in up to 8 rows, dimensions up to 2^12) or from a family that
    walks across one input bound, run through `crpencils build`;
    when that writes a file, the file goes through the three verify modes;
  - a pencil document, mutated one to three times from a file an earlier
    example built or from a one-row GL document, run through the three
    verify modes.
The verify modes run as sampled at --trials 20, transitivity, and
exhaustive at --prime 3 --budget 4096.

Every command runs in its own child process, one at a time, with a 2 GB
RLIMIT_AS on that child alone and a 20 s timeout.  A command fails on an
exit code outside 0-3 (or other than a named case's own), a traceback on
stderr, or the timeout.  The run prints each failure with its command and
the example's seed, and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_AS = 2 << 30  # bytes of address space for each child
TIMEOUT = 20  # seconds for each child
VERIFY_MODES = (["--mode", "sampled", "--trials", "20"], ["--mode", "transitivity"],
                ["--mode", "exhaustive", "--prime", "3", "--budget", "4096"])
# builder records whose one parameter walks across one input bound, with its values
BOUNDARY_FAMILIES = [
    # module words: 2^(k+1) (k+1) cells at v = 2 and N = 2, 3^(k+1) (k+1) at m = 3
    (lambda k: {"kind": "gl", "mu": [k], "nu": [k + 1], "v": 2}, range(12, 18)),
    (lambda k: {"kind": "sp", "mu": [k], "nu": [k + 1], "N": 2}, range(12, 18)),
    (lambda k: {"kind": "so", "mu": [k], "nu": [k + 1], "m": 3}, range(7, 13)),
    # equivariance generators: 2 (v - 1) v^2 and N^3 cells
    (lambda v: {"kind": "gl", "mu": [], "nu": [1], "v": v}, range(77, 85)),
    (lambda n: {"kind": "sp", "mu": [], "nu": [1], "N": 2 * n}, range(48, 53)),
    # coefficient cells
    (lambda n: {"kind": "spin", "n": n}, range(7, 11)),
    (lambda v: {"kind": "koszul", "k": 1, "v": v}, range(36, 42)),
    (lambda a: {"kind": "adjoint", "a": a}, range(8, 12)),
    # the guards of BuildSpec.shape: m times two dimension floors of m, spin's n
    (lambda m: {"kind": "so", "mu": [1], "nu": [1, 1], "m": m}, range(98, 105)),
    (lambda n: {"kind": "spin", "n": n}, range(20, 24)),
]
# values that a mutated document puts where an integer or a list belongs
JUNK = [0, -1, 1, 2, 1023, 1024, 1025, 1 << 20, 10 ** 30, "5", "x", 1.5, None,
        True, [], {}, [1, -1], [10 ** 9], "9" * 5000]


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS, LIMIT_AS))


def run(argv: list[str]) -> tuple[object, str, float]:
    """(exit code or "timeout", stderr, seconds) of `crpencils argv` in a
    child process under the limits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "crpencils.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=TIMEOUT, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - start
    return (done.returncode, done.stderr.decode("utf-8", "replace"),
            time.perf_counter() - start)


def document(nvars: int, source: int, target: int, entries, builder=None) -> dict:
    """A pencil document of (var, row, col, num) entries, den 1."""
    doc = {"entries": [{"var": v, "row": r, "col": c, "num": str(x), "den": "1"}
                       for v, r, c, x in entries],
           "nvars": nvars, "source_dim": source, "target_dim": target,
           "var_labels": [f"x_{i + 1}" for i in range(nvars)]}
    if builder is not None:
        doc["builder"] = builder
    return doc


def one_row_gl(k: int, v: int) -> dict:
    """The document of the shape gl (k) -> (k + 1) has at v, x_1 on a
    diagonal, with that record: it describes the file, so transitivity
    prices the record's modules."""
    source, target = comb(k + v - 1, k), comb(k + v, k + 1)
    return document(v, source, target, [(0, i, i, 1) for i in range(min(source, target, 4096))],
                    {"kind": "gl", "mu": [k], "nu": [k + 1], "v": v})


def empty_lists(count) -> str:
    """A one-variable pencil document whose entries are `count` empty
    lists, or as many as fit in MAX_PENCIL_BYTES (128 MiB) for None."""
    head, tail = '{"entries": [', '[]], "nvars": 1, "source_dim": 1, "target_dim": 1, "var_labels": ["x_1"]}'
    if count is None:
        count = ((128 << 20) - len(head) - len(tail)) // 3 + 1
    return head + "[]," * (count - 1) + tail


def write(path: Path, doc) -> Path:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return path


def named_cases(tmp: Path) -> dict[str, tuple[list[str], int]]:
    """{name: (argv, expected exit code)}."""
    n = 1024
    labels = [f"x_{i + 1}" for i in range(n)]
    sp = document(n, 1, 1, [(0, 0, 0, 1)], {"kind": "sp", "mu": [1], "nu": [1, 1], "N": n})
    gl = document(n, 1, n, [(0, 0, 0, 1)], {"kind": "gl", "mu": [], "nu": [1], "v": n})
    sp["var_labels"] = gl["var_labels"] = labels
    transitivity = ["--mode", "transitivity"]
    return {
        # `build` formed the module dimensions of SO(600) for 20 s
        "so-m600-build": (["build", "so", "--mu", "1", "--nu", "1,1", "--N", "600"], 2),
        # a 1 x 1 file of 1,024 variables: 46 s in the Weyl products of the record
        "sp-1024-record": (["verify", str(write(tmp / "sp-1024.json", sp)), *transitivity], 2),
        # 2,046 dense 1024 x 1024 Chevalley generators, past 30 s
        "gl-1024-generators": (["verify", str(write(tmp / "gl-1024.json", gl)), *transitivity], 2),
        # one long row: the symmetrizers' words ran 18-36 s into a MemoryError
        "gl-long-row-build": (["build", "gl", "--mu", "40", "--nu", "41", "--n", "1"], 2),
        "so-long-row-build-12": (["build", "so", "--mu", "12", "--nu", "13", "--N", "3"], 2),
        "so-long-row-build-20": (["build", "so", "--mu", "20", "--nu", "21", "--N", "3"], 2),
        "sp-long-row-build": (["build", "sp", "--mu", "30", "--nu", "31", "--N", "2"], 2),
        "gl-long-row-file": (["verify", str(write(tmp / "gl-40-41.json", one_row_gl(40, 2))),
                              *transitivity], 2),
        # a FileNotFoundError traceback
        "build-out-missing-dir": (["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2",
                                   "--out", str(tmp / "missing" / "x.json")], 2),
        # read whole into a MemoryError: an endless file, refused past the byte bound
        "verify-dev-zero": (["verify", "/dev/zero"], 3),
        # 39 MB of 13 million empty lists, within the byte bound: json.loads
        # ran into a MemoryError under 1 GB; refused by the count of JSON values
        "verify-13m-empty-lists": (["verify", str(write(tmp / "lists-13m.json",
                                                        empty_lists(13_000_000)))], 3),
        # as many as the byte bound holds, which json.loads needs 2.8 GB for
        "verify-byte-bound-empty-lists": (["verify", str(write(tmp / "lists-max.json",
                                                               empty_lists(None)))], 3),
    }


def partition(rng: random.Random) -> list[int]:
    """Up to 8 rows and 64 boxes."""
    rows = rng.randint(0, 8)
    return sorted((rng.randint(1, 64 // max(rows, 1)) for _ in range(rows)), reverse=True)


def plus_box(rng: random.Random, mu: list[int]) -> list[int]:
    """mu with one box added, or now and then another partition."""
    if rng.random() < 0.1:
        return partition(rng)
    rows = [i for i in range(len(mu) + 1) if i == 0 or mu[i - 1] > (mu[i] if i < len(mu) else 0)]
    i = rng.choice(rows)
    return mu[:i] + [(mu[i] if i < len(mu) else 0) + 1] + mu[i + 1:]


def dimension(rng: random.Random) -> int:
    if rng.random() < 0.05:
        return rng.choice([10 ** 6, 10 ** 9, 1 << 40])
    return rng.randint(0, 12) if rng.random() < 0.6 else int(2 ** rng.uniform(0, 12))


def record(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        family, values = rng.choice(BOUNDARY_FAMILIES)
        return family(rng.choice(values))
    kind = rng.choice(["gl", "sp", "so", "spin", "koszul", "adjoint"])
    if kind in ("gl", "sp", "so"):
        mu = partition(rng)
        return {"kind": kind, "mu": mu, "nu": plus_box(rng, mu),
                {"gl": "v", "sp": "N", "so": "m"}[kind]: dimension(rng)}
    if kind == "spin":
        return {"kind": kind, "n": rng.randint(0, 24) if rng.random() < 0.9 else dimension(rng)}
    if kind == "koszul":
        v = dimension(rng)
        return {"kind": kind, "k": rng.randint(0, v if v < 64 else 4), "v": v}
    return {"kind": kind, "a": dimension(rng)}


def build_argv(rec: dict, out: Path) -> list[str]:
    """`crpencils build` of a record: gl takes --n = v - 1, sp and so --N."""
    argv = ["build", rec["kind"]]
    for name, value in list(rec.items())[1:]:
        if rec["kind"] == "gl" and name == "v":
            name, value = "n", value - 1
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv.append(f"--{'N' if name == 'm' else name}={text}")
    return argv + ["--out", str(out)]


def mutate(rng: random.Random, doc: dict):
    """The document with one to three random edits; the last may turn it
    into text that is not a document at all."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(7)
        if edit == 0:
            doc[rng.choice(["nvars", "source_dim", "target_dim"])] = rng.choice(JUNK)
        elif edit == 1:
            labels = doc["var_labels"] if isinstance(doc.get("var_labels"), list) else []
            doc["var_labels"] = rng.choice([labels[:-1], labels + ["y"], [1] * len(labels), "x"])
        elif edit == 2:
            doc["builder"] = record(rng)
        elif edit == 3 and isinstance(doc.get("builder"), dict):
            field = rng.choice(sorted(doc["builder"]))
            doc["builder"][field] = rng.choice(JUNK + ["gl", "sp", "so", "spin", "nope"])
        elif edit == 4 and doc.get("entries"):
            entries = doc["entries"]
            i = rng.randrange(len(entries))
            choice = rng.randrange(4)
            if choice == 0:
                entries[i][rng.choice(sorted(entries[i]) or ["num"])] = rng.choice(JUNK)
            elif choice == 1:
                entries[i].pop(rng.choice(sorted(entries[i]) or ["num"]), None)
            elif choice == 2:
                entries.insert(i, dict(entries[i]))
            else:
                entries.reverse()
        elif edit == 5:
            doc.pop(rng.choice(["entries", "nvars", "var_labels", "builder"]), None)
        elif edit == 6:
            text = json.dumps(doc)
            return rng.choice([text[:rng.randrange(len(text) + 1)], "[" * 100_000,
                               text.replace("1", "1" * 5000, 1), "{}", "[]", "null"])
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--examples", type=int, default=100)
    args = ap.parse_args(argv)
    seed = int.from_bytes(os.urandom(4), "big") if args.seed is None else args.seed
    print(f"seed {seed}", flush=True)
    failures, codes, slowest = [], {}, (0.0, None)
    with tempfile.TemporaryDirectory(prefix="crpencils-fuzz-") as name:
        tmp = Path(name)

        def check(label, argv, expected=None):
            nonlocal slowest
            code, err, seconds = run(argv)
            codes[code] = codes.get(code, 0) + 1
            slowest = max(slowest, (seconds, " ".join(argv)), key=lambda x: x[0])
            bad = (code != expected if expected is not None
                   else code not in (0, 1, 2, 3)) or "Traceback" in err
            if bad:
                failures.append(f"{label}: exit {code} after {seconds:.1f} s: "
                                f"crpencils {' '.join(argv)}\n{err[-2000:]}")
                print(failures[-1], flush=True)
            return code

        for case, (argv, expected) in named_cases(tmp).items():
            check(f"case {case}", argv, expected)
        built = [one_row_gl(k, v) for k, v in ((2, 2), (3, 3), (14, 2), (16, 2))]
        for i in range(args.examples):
            if i and i % 50 == 0:
                print(f"{i} examples, exit codes {codes}", flush=True)
            rng = random.Random(f"{seed}-{i}")
            label = f"example {i} (seed {seed})"
            path = tmp / f"example-{i}.json"
            if rng.random() < 0.5:
                if check(label, build_argv(record(rng), path)) != 0:
                    continue
                if path.stat().st_size < 1 << 22:
                    built.append(json.loads(path.read_text()))
            else:
                write(path, mutate(rng, rng.choice(built)))
            for mode in VERIFY_MODES:
                check(label, ["verify", str(path), *mode])
            path.unlink()
    print(f"exit codes {codes}; slowest {slowest[0]:.1f} s: crpencils {slowest[1]}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
