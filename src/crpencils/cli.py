"""Command-line interface: build pencils, verify rank behavior, run the catalog.

Exit codes: 0 success, 1 expectation failure, 2 usage/shape error or
output that cannot be written, 3 a pencil file that cannot be read,
141 (128 + SIGPIPE) when the reader of stdout closed it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .analysis import constant_rank_verdict
from .catalog import (
    CatalogRunConfig,
    build_from_params,
    dumps_pencil,
    loads_pencil,
    run_catalog,
)
from .linalg import DEFAULT_PRIME
from .pencils import MAX_PENCIL_BYTES, RECORD_FIELDS

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PIPE = 141


def _partition_arg(text: str) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}") from None
    return parts


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="odd prime below 2^31 for modular rank computations")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed, echoed in every report")
    p.add_argument("--format", choices=("json", "text"), default="json")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crpencils",
        description="equivariant spaces of matrices with certified rank behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a pencil and write it as JSON")
    b.add_argument("group", choices=RECORD_FIELDS)
    b.add_argument("--mu", type=_partition_arg, default=None)
    b.add_argument("--nu", type=_partition_arg, default=None)
    b.add_argument("--n", type=int, default=None,
                   help="gl: family index (n+1 variables); spin: half rank")
    b.add_argument("--N", type=int, default=None,
                   help="sp/so: dimension of the natural representation")
    b.add_argument("--k", type=int, default=None, help="koszul: exterior degree")
    b.add_argument("--v", type=int, default=None,
                   help="koszul: dimension of the variable space")
    b.add_argument("--a", type=int, default=None,
                   help="adjoint: dimension for the 3-form example")
    b.add_argument("--out", default=None, help="output file (default stdout)")

    v = sub.add_parser("verify", help="rank-verify a pencil JSON file")
    v.add_argument("file")
    v.add_argument("--mode", choices=("sampled", "exhaustive", "transitivity"),
                   default="sampled")
    v.add_argument("--expect-rank", type=int, default=None)
    v.add_argument("--expect-verdict", default=None)
    v.add_argument("--trials", type=_positive_int, default=200,
                   help="number of random sample points")
    v.add_argument("--budget", type=_positive_int, default=10 ** 6,
                   help="maximum points counted: exhaustive's projective points (it ranks "
                        "one per torus orbit), sampled's trials")
    _add_common_flags(v)

    c = sub.add_parser("catalog", help="run the example catalog")
    c.add_argument("--filter", default="*", help="glob over entry ids")
    _add_common_flags(c)
    return parser


def _build_record(args) -> dict:
    """The builder record from the `build` flags: each field from the flag of
    its name, except that sp/so take m from --N and gl takes v = n + 1."""
    g = args.group
    flag = {"m": "N", "v": "n"} if g == "gl" else {"m": "N"}
    fields = {f: getattr(args, flag.get(f, f)) for f in RECORD_FIELDS[g]}
    missing = [flag.get(f, f) for f, x in fields.items() if x is None]
    if missing:
        raise ValueError(f"build {g} requires --{', --'.join(missing)}")
    if g == "gl":
        fields["v"] += 1
    return {"kind": g, **fields}


def cmd_build(args) -> int:
    try:
        pencil = build_from_params(_build_record(args))
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = dumps_pencil(pencil, pencil.spec.record())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, a full disk
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)  # main reports a failed write
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read(MAX_PENCIL_BYTES + 1)
        if len(data) > MAX_PENCIL_BYTES:
            raise ValueError(f"file exceeds {MAX_PENCIL_BYTES} bytes")
        pencil, _ = loads_pencil(data.decode("utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, too long, not UTF-8 or malformed
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = constant_rank_verdict(
            pencil, args.mode, prime=args.prime, trials=args.trials,
            seed=args.seed, budget=args.budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = report.to_jsonable()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"verdict: {report.verdict}")
        print(f"generic rank: {report.generic_rank}")
        for r, pt, cls in report.strata:
            print(f"  rank {r} at {cls} point")
        print(f"method: {payload['method']}")
    failed = (
        (args.expect_rank is not None
         and report.generic_rank != args.expect_rank)
        or (args.expect_verdict is not None
            and report.verdict != args.expect_verdict)
    )
    return EXIT_EXPECTATION if failed else EXIT_OK


def cmd_catalog(args) -> int:
    try:
        cfg = CatalogRunConfig(prime=args.prime, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = run_catalog(args.filter, cfg)
    if not results:
        print(f"error: no catalog entry matches {args.filter!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(
            [
                {
                    "id": r.entry_id,
                    "status": r.status,
                    "seconds": round(r.seconds, 2),
                    "failures": r.failures,
                    "details": r.details,
                    "prime": cfg.prime,
                    "seed": cfg.seed,
                }
                for r in results
            ],
            indent=2, sort_keys=True, default=sorted,  # sets as sorted lists
        ))
    else:
        width = max(len(r.entry_id) for r in results)
        for r in results:
            print(f"{r.entry_id:<{width}}  {r.status:<7} {r.seconds:7.1f}s")
            for f in r.failures:
                print(f"    {f}")
        npass = sum(r.status == "pass" for r in results)
        print(f"{npass}/{len(results)} passed "
              f"(prime={cfg.prime} seed={cfg.seed})")
    return EXIT_OK if all(r.status != "fail" for r in results) else EXIT_EXPECTATION


def _discard_stdout() -> None:
    """Send what is left in stdout's buffer, and the flush at exit, to devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        code = {"build": cmd_build, "verify": cmd_verify}.get(args.command, cmd_catalog)(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone
        _discard_stdout()
        return EXIT_PIPE
    except OSError as exc:  # stdout takes no more: a full disk, say
        _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
