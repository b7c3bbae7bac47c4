"""scripts/time_pairs.py: the in-process probes end to end, its build
commands and its exit rule."""

import importlib.util
from pathlib import Path

import pytest

from crpencils.cli import _build_record, make_parser

ROOT = Path(__file__).resolve().parents[1]
CASES = {
    "ranks": ["sp6-F7", "fixture-F5", "adjoint-8", "random-512x252", "random-252x512",
              "gl-v9-240x45", "so-hook-6-512x252", "so-hook-6-252x512", "koszul-3-9-kernels"],
    "equivariance": ["gl-22-221-5", "gl-2-21-7", "sp-11-111-6", "so-311-321-5",
                     "so-311-321-6-file", "certify-3"],
    "realize": ["so-311-5", "so-321-5", "gl-211-6", "gl-2111-6", "gl-22-5", "gl-221-5",
                "sp-2-6", "sp-21-6", "so-2-5", "so-21-5", "all-10"],
    "rnd": ["koszul-2-7", "gl-21-211-4", "koszul-2-6", "so-2-21-4", "spin-5", "gl-2-21-3"],
    "exhaustive": ["sp-11-111-6-F7", "fixture-sp6_wedge2-F5", "gl-2-21-4-F3", "koszul-2-5-F7"],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("probe", CASES)
def test_probe_against_this_tree_as_its_own_parent(probe, capsys):
    argv = ["--probe", probe, "--parent", str(ROOT), "--rounds", "1", "--repeats", "1"]
    assert _load("time_pairs").main(argv) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [[case, tree] for case in CASES[probe] for tree in ("this", "parent")]


def test_build_commands_give_back_the_example_records():
    pairs = _load("time_pairs")
    for _, record in _load("build_examples").EXAMPLES:
        args = make_parser().parse_args(pairs.build_argv(record))
        assert _build_record(args) == {k: tuple(x) if isinstance(x, list) else x
                                       for k, x in record.items()}


def _rounds(*pins, ok=True):
    return [{"case": "c", "ms": 1.0, "ok": ok, "pin": pin, "note": "", "faults": None}
            for pin in pins]


def test_a_failed_check_or_a_pin_that_differs_between_the_trees_exits_1(capsys):
    report = _load("time_pairs").report
    sides = ["this", "parent"]
    assert report({"c": {"this": _rounds("a", "a"), "parent": _rounds("a")}}, sides) == 0
    assert report({"c": {"this": _rounds("a"), "parent": _rounds("b")}}, sides) == 1
    assert "the pinned outputs differ between the trees on: c" in capsys.readouterr().err
    assert report({"c": {"this": _rounds("a"), "parent": _rounds("a", ok=False)}}, sides) == 1
    assert "the check failed on: c" in capsys.readouterr().err
