"""The compute paths build no Fraction: with fractions.Fraction refused,
every build of the build-digest list, the certify and rnd benchmark jobs
and the spinor, Eagon-Northcott and so-sym2 catalog entries still run and
pass.  Each case first empties the crpencils caches, so nothing it checks
was built before the refusal.  Nor does the command line import fractions."""
import fractions
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crpencils import cli
from crpencils.catalog import CATALOG, CatalogRunConfig, loads_pencil, run_entry

from test_catalog_cli import BUILD_DIGESTS

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


class FractionBuilt(Exception):
    pass


def _refuse(cls, *args, **kwargs):
    raise FractionBuilt(f"Fraction{args} built on a compute path")


@pytest.fixture
def no_fraction(monkeypatch):
    for name, mod in list(sys.modules.items()):
        if name.startswith("crpencils"):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    monkeypatch.setattr(fractions.Fraction, "__new__", _refuse)
    with pytest.raises(FractionBuilt):
        fractions.Fraction(1, 2)


@pytest.mark.parametrize("argv,digest", BUILD_DIGESTS,
                         ids=["".join(argv).replace("--", "-") for argv, _ in BUILD_DIGESTS])
def test_build_and_load_build_no_fraction(no_fraction, tmp_path, argv, digest):
    out = tmp_path / "pencil.json"
    assert cli.main(["build", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    pencil, builder = loads_pencil(text)
    assert builder["kind"] == argv[0] and pencil.coeffs


def _jobs(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # for its dataclasses
    spec.loader.exec_module(jobs)
    return jobs


def test_certify_jobs_build_no_fraction(no_fraction, monkeypatch):
    for job in _jobs(monkeypatch).certify_plan(0).jobs:
        job.run()


def test_rnd_jobs_build_no_fraction(no_fraction, monkeypatch):
    for job in _jobs(monkeypatch).rnd_plan(0).jobs:
        job.run()


def test_the_command_line_imports_no_fractions():
    # a fresh interpreter: this one has imported fractions for the tests
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, crpencils.cli; print('fractions' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("entry_id", ["spin10-pencil", "spin10-fixture",
                                      "eagon-northcott-rank-dependence", "so-sym2-family"])
def test_catalog_entries_build_no_fraction(no_fraction, entry_id):
    entry = next(e for e in CATALOG if e.entry_id == entry_id)
    result = run_entry(entry, CatalogRunConfig())
    assert (result.status, result.failures) == ("pass", [])
