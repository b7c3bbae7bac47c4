#!/usr/bin/env python3
"""List the executable lines under src/ that none of the program's traffic runs.

    python3 scripts/traffic.py

Under the standard library's trace module, in one process, it runs every
job and probe of the three plans of perfbench/jobs.py (imported read-only,
seed 0), every catalog entry, and, for each record of
scripts/build_examples.py, its build and JSON file as that script writes
them (build_from_params, dumps_pencil) and `crpencils verify` of the file
in the sampled, transitivity and exhaustive (prime 3) modes, output
discarded.  `crpencils build` is not among them, so the lines that only it
runs (cli.cmd_build, cli._build_record, BuildSpec.record) are listed.
For each file under src/ it then prints the executable lines (those that
start a line of the compiled code) that none of them ran, as ranges.
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
    for entry in catalog.CATALOG:
        catalog.run_entry(entry, catalog.CatalogRunConfig())
    examples = load(ROOT / "scripts" / "build_examples.py").EXAMPLES
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for name, params in examples:
            path = Path(tmp) / f"{name}.json"
            path.write_text(catalog.dumps_pencil(catalog.build_from_params(params), params),
                            encoding="utf-8")
            for mode in (["sampled"], ["transitivity"], ["exhaustive", "--prime", "3"]):
                cli.main(["verify", str(path), "--mode", *mode])


def executable_lines(path: Path) -> set:
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


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
        lines = executable_lines(path)
        unran = sorted(n for n in lines if (path.resolve(), n) not in ran)
        total, missed = total + len(lines), missed + len(unran)
        print(f"{path.relative_to(ROOT)}: {len(unran)} unran: {ranges(unran) or '-'}")
    print(f"{missed} of {total} executable lines unran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
