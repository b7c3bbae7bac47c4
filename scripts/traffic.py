#!/usr/bin/env python3
"""List the executable lines under src/ that none of the program's traffic runs.

    python3 scripts/traffic.py

Under the standard library's trace module, in one process, it runs every
job and probe of the three plans of perfbench/jobs.py (imported read-only,
seed 0), every catalog entry through `crpencils catalog --format json`,
and, for each record of scripts/build_examples.py, its build and JSON file
as that script writes them (build_from_params, dumps_pencil) and
`crpencils verify` of the file in the sampled, transitivity and exhaustive
(prime 3) modes, output discarded.  `crpencils build` is not among them, so the lines that only it
runs (cli.cmd_build, cli._build_record, BuildSpec.record) are listed.
For each file under src/ it then prints the executable lines (those that
start a line of the compiled code) that none of them ran, as ranges, and
the functions none of whose body lines ran (a function's lines less its
enclosing code's, which runs its def and decorator lines), by qualified
name; a nested function is named only when its enclosing one ran.
"""
import contextlib
import dis
import importlib.util
import io
import sys
import tempfile
import trace
import types
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclasses of jobs.py
    spec.loader.exec_module(module)
    return module


def traffic() -> None:
    from crpencils import catalog, cli  # imported here, so that trace sees the import
    jobs = load(ROOT / "perfbench" / "jobs.py")
    for workload in jobs.WORKLOADS:
        plan = jobs.prepare(workload, 0)
        for job in plan.jobs + plan.probe:
            job.run()
    examples = load(ROOT / "scripts" / "build_examples.py").EXAMPLES
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["catalog", "--format", "json"])
        for name, params in examples:
            path = Path(tmp) / f"{name}.json"
            path.write_text(catalog.dumps_pencil(catalog.build_from_params(params), params),
                            encoding="utf-8")
            for mode in (["sampled"], ["transitivity"], ["exhaustive", "--prime", "3"]):
                cli.main(["verify", str(path), "--mode", *mode])


def starts(code: types.CodeType) -> set:
    return {line for _, line in dis.findlinestarts(code) if line}


def children(code: types.CodeType) -> list:
    return [c for c in code.co_consts if isinstance(c, types.CodeType)]


def executable_lines(module: types.CodeType) -> set:
    todo, lines = [module], set()
    while todo:
        code = todo.pop()
        lines |= starts(code)
        todo += children(code)
    return lines


def unran_functions(module: types.CodeType, ran: set) -> list:
    """The qualified names of the functions (comprehensions and lambdas
    aside) none of whose body lines are in `ran`, in source order."""
    todo, names = [(module, c) for c in children(module)], []
    while todo:
        parent, code = todo.pop()
        if code.co_name.startswith("<"):
            continue
        if not (starts(code) - starts(parent)) & ran:
            names.append((code.co_firstlineno, getattr(code, "co_qualname", code.co_name)))
        else:
            todo += [(code, c) for c in children(code)]
    return [name for _, name in sorted(names)]


def ranges(lines: list) -> str:
    runs = [[n for _, n in run] for _, run in groupby(enumerate(lines), lambda t: t[1] - t[0])]
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main() -> int:
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(traffic)
    ran = {(Path(f).resolve(), n) for f, n in tracer.results().counts}
    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        lines = executable_lines(module)
        unran = sorted(n for n in lines if (path.resolve(), n) not in ran)
        total, missed = total + len(lines), missed + len(unran)
        print(f"{path.relative_to(ROOT)}: {len(unran)} unran: {ranges(unran) or '-'}")
        functions = unran_functions(module, {n for f, n in ran if f == path.resolve()})
        print(f"  functions unran: {', '.join(functions) or '-'}")
    print(f"{missed} of {total} executable lines unran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
