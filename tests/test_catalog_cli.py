"""Catalog completeness, pencil-file serialization, fixtures, and the CLI."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crpencils import catalog, cli, modules, partitions, pencils
from crpencils.catalog import (
    CATALOG,
    FIXTURE_NAMES,
    CatalogEntry,
    CatalogRunConfig,
    FixtureParseError,
    build_from_params,
    document_to_pencil,
    dumps_pencil,
    fixture_parse,
    loads_pencil,
    parse_fixture_text,
    run_catalog,
    run_entry,
)
from crpencils.analysis import constant_rank_verdict, random_points, ranks_at
from crpencils.linalg import qq_rank
from crpencils.modules import schur_module
from crpencils.pencils import (
    BuildSpec,
    Pencil,
    build_gl_pencil,
    build_koszul_pencil,
    build_spin_pencil,
    check_equivariance,
    equivariance_data,
)
from word_oracles import document_to_pencil_by_entry, pencil_to_document


def catalog_ids():
    return tuple(e.entry_id for e in CATALOG)


def test_catalog_covers_every_entry_exactly_once():
    ids = catalog_ids()
    assert ids == tuple(sorted(ids))
    assert len(set(ids)) == len(ids)


def test_catalog_entries_have_descriptions_and_expectations():
    for entry in CATALOG:
        assert entry.description


# -- pencil file round trips -------------------------------------------------


def test_document_round_trip_on_built_pencils():
    for pen in (build_gl_pencil((2,), (2, 1), 3), build_koszul_pencil(1, 4)):
        doc = json.loads(dumps_pencil(pen))
        back = document_to_pencil(doc)
        assert json.loads(dumps_pencil(back)) == doc
        assert (back.coeffs, back.denom) == (pen.coeffs, pen.denom)


def test_loads_dumps_round_trip_with_builder():
    pen = build_gl_pencil((2,), (2, 1), 3)
    params = {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}
    text = dumps_pencil(pen, params)
    back, builder = loads_pencil(text)
    assert builder == params
    assert dumps_pencil(back, builder) == text


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_document_round_trip_random_pencils(nvars, rows, cols, data):
    coeffs = tuple(
        (var, r, c, x)
        for var in range(nvars)
        for r in range(rows)
        for c in range(cols)
        if (x := data.draw(st.integers(-9, 9)))
    )
    pen = Pencil(
        nvars=nvars,
        source_dim=cols,
        target_dim=rows,
        coeffs=coeffs,
        denom=data.draw(st.integers(1, 6)),
        var_labels=tuple(f"x{i}" for i in range(nvars)),
    )
    doc = json.loads(dumps_pencil(pen))
    assert json.loads(dumps_pencil(document_to_pencil(doc))) == doc


def test_entries_are_sorted_and_stringly_typed():
    doc = json.loads(dumps_pencil(build_gl_pencil((2,), (2, 1), 3)))
    keys = [(e["var"], e["row"], e["col"]) for e in doc["entries"]]
    assert keys == sorted(keys)
    assert all(isinstance(e["num"], str) and isinstance(e["den"], str)
               for e in doc["entries"])


def test_document_validation_errors():
    good = json.loads(dumps_pencil(build_koszul_pencil(1, 3)))
    bad = json.loads(json.dumps(good))
    bad["entries"] = list(reversed(bad["entries"]))
    with pytest.raises(FixtureParseError):
        document_to_pencil(bad)
    bad2 = json.loads(json.dumps(good))
    bad2["entries"][0]["den"] = "0"
    with pytest.raises(FixtureParseError):
        document_to_pencil(bad2)
    bad3 = json.loads(json.dumps(good))
    bad3["entries"][0]["row"] = 999
    with pytest.raises(FixtureParseError):
        document_to_pencil(bad3)
    with pytest.raises(FixtureParseError):
        loads_pencil("this is not json")


@pytest.mark.parametrize("nvars,target,source",
                         [(1, 1, 10 ** 12), (2, 3000, 3000), (1025, 1, 1)])
def test_oversized_document_rejected(tmp_path, capsys, nvars, target, source):
    doc = {"nvars": nvars, "target_dim": target, "source_dim": source,
           "var_labels": [f"x{i}" for i in range(nvars)],
           "entries": [{"var": 0, "row": 0, "col": 0, "num": "1", "den": "1"}]}
    with pytest.raises(FixtureParseError, match="exceeds"):
        document_to_pencil(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for mode in ("sampled", "exhaustive", "transitivity"):
        assert cli.main(["verify", str(path), "--mode", mode]) == 3
        assert "exceeds" in capsys.readouterr().err


# -- the canonical writer and the column-wise reader against their oracles ---


# labels with quotes, backslashes, control characters and non-ASCII text
_labels = st.text(alphabet=st.sampled_from('x_1"\\\n\t\x00\x1f\x7fé∑\U0001f600 '),
                  max_size=5) | st.text(max_size=4)

_records = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20) | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                             max_size=3),
    max_leaves=8,
)


@st.composite
def _pencils(draw):
    """A pencil of at most 3 x 3 x 3 cells with signed numerators over a
    denominator that need not divide them, so that entries reduce apart."""
    nvars, rows, cols = (draw(st.integers(1, 3)) for _ in range(3))
    cells = draw(st.lists(st.tuples(st.integers(0, nvars - 1), st.integers(0, rows - 1),
                                     st.integers(0, cols - 1)), unique=True, max_size=12,
                          min_size=draw(st.sampled_from((0, 1, 1, 1)))))
    nums = st.integers(-60, 60).filter(bool) | st.integers(-10 ** 30, 10 ** 30).filter(bool)
    return Pencil(nvars=nvars, source_dim=cols, target_dim=rows,
                  coeffs=tuple(sorted(k + (draw(nums),) for k in cells)),
                  denom=draw(st.integers(1, 60) | st.integers(1, 10 ** 20)),
                  var_labels=tuple(draw(_labels) for _ in range(nvars)))


@settings(max_examples=150, deadline=None)
@given(_pencils(), _records | st.dictionaries(st.text(max_size=4), _records, max_size=4))
def test_dumps_pencil_is_the_canonical_json_of_the_document(pen, record):
    want = json.dumps(pencil_to_document(pen, record), indent=2, sort_keys=True) + "\n"
    assert dumps_pencil(pen, record) == want
    if record is None:
        assert dumps_pencil(pen) == want


# what may replace a field: a float, a bool, a signed, spaced, fractional or
# comma-joined string, null, and integers in and out of range, as numbers
# and as decimal strings
_field_values = st.one_of(
    st.floats(), st.booleans(), st.none(),
    st.sampled_from(("+1", " 1", "1 ", "1/1", "1,2", ",", "", "-", "0x1", "1_0", "-0",
                     "١", "²", "1\n")),
    st.integers(-3, 8), st.integers(-3, 8).map(str), st.integers(),
    st.lists(st.integers(0, 2), max_size=2),
)


def _integer(x):
    """x as an int when it is one or a decimal string of one, else None."""
    if type(x) is int or isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    return None


def _mutate_entry(draw, doc):
    entries = doc["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(("restyle", "restyle", "value", "delete", "unreduce",
                                 "swap", "duplicate", "not-an-object")))
    if kind == "restyle":  # the same integer as a JSON number or a decimal string
        for key in draw(st.lists(st.sampled_from(sorted(entries[i])), max_size=5)):
            x = entries[i][key]
            if _integer(x) is not None:
                entries[i][key] = str(x) if type(x) is int else int(x)
    elif kind == "value":
        entries[i][draw(st.sampled_from(sorted(entries[i])))] = draw(_field_values)
    elif kind == "delete":
        del entries[i][draw(st.sampled_from(sorted(entries[i])))]
    elif kind == "unreduce":
        num, den = (_integer(entries[i].get(key)) for key in ("num", "den"))
        if num is not None and den is not None:
            k = draw(st.sampled_from((2, 3, 0, -1)))
            entries[i]["num"], entries[i]["den"] = str(k * num), str(k * den)
    elif kind == "swap":
        j = draw(st.integers(0, len(entries) - 1))
        entries[i], entries[j] = entries[j], entries[i]
    elif kind == "duplicate":
        entries.insert(i, dict(entries[i]))
    else:
        entries[i] = draw(st.sampled_from(([], "var", 0, None)))


@st.composite
def _mutated_pencil_documents(draw):
    """A written document with up to two mutations of its header, its
    entries or the entries' list itself."""
    doc = json.loads(dumps_pencil(draw(_pencils())))
    for _ in range(draw(st.integers(0, 2))):
        entries = doc.get("entries")
        target = draw(st.sampled_from(("header", "entries", "entries", "entries", "list")))
        if target == "entries" and isinstance(entries, list) and entries \
                and all(isinstance(e, dict) and e for e in entries):
            _mutate_entry(draw, doc)
        elif target == "list":
            doc["entries"] = draw(st.sampled_from(({}, "", "ab", {"var": 0}, 3, None, True)))
        else:
            key = draw(st.sampled_from(sorted(doc)))
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(_field_values)
    return doc


def _read_or_refuse(reader, doc):
    try:
        return reader(doc)
    except FixtureParseError:
        return "refused"


@settings(max_examples=400, deadline=None)
@given(_mutated_pencil_documents())
def test_column_reader_accepts_and_refuses_as_the_entry_reader(doc):
    assert (_read_or_refuse(document_to_pencil, doc)
            == _read_or_refuse(document_to_pencil_by_entry, doc))


_EDIT_VALUES = (1.0, 2.5, True, False, None, [1], {}, "+1", " 1", "1 ", "1/1", "1,2", ",",
                "", "-", "0x1", "1_0", "-0", "١", "²", "1\n", "9" * 5000, 10 ** 30,
                *range(-1, 8), *map(str, range(-1, 8)))


def _single_edits(doc):
    """Every document that differs from doc by one edit: a field of the
    header or of the first or second entry replaced or deleted, the second
    entry scaled out of lowest terms, the entries reversed, the second entry
    doubled, or the entries' list replaced."""
    def edited(change):
        new = json.loads(json.dumps(doc))
        change(new)
        return new
    for node in (lambda d: d, lambda d: d["entries"][0], lambda d: d["entries"][1]):
        for key in sorted(node(doc)):
            yield edited(lambda d: node(d).pop(key))
            for x in _EDIT_VALUES:
                yield edited(lambda d: node(d).__setitem__(key, x))
    for k in (2, 3, 0, -1):
        yield edited(lambda d: d["entries"][1].update(
            num=str(k * int(d["entries"][1]["num"])), den=str(k * int(d["entries"][1]["den"]))))
    yield edited(lambda d: d["entries"].reverse())
    yield edited(lambda d: d["entries"].insert(1, d["entries"][1]))
    for x in ({}, "", "ab", {"var": 0}, 3, None, True, [[]], ["var"], [0], [None]):
        yield edited(lambda d: d.__setitem__("entries", x))


def test_column_reader_matches_the_entry_reader_on_each_single_edit():
    # entries 1/2, -1/6, -2/3 and 1 over the common denominator 6
    pen = Pencil(nvars=2, source_dim=3, target_dim=2, denom=6, var_labels=("a", "b"),
                 coeffs=((0, 0, 0, 3), (0, 1, 2, -1), (1, 0, 1, -4), (1, 1, 0, 6)))
    outcomes = set()
    for doc in _single_edits(json.loads(dumps_pencil(pen))):
        got = _read_or_refuse(document_to_pencil, doc)
        assert got == _read_or_refuse(document_to_pencil_by_entry, doc), doc
        outcomes.add(got == "refused")
    assert outcomes == {True, False}


@pytest.mark.parametrize("text", ["[" * 100_000, '{"nvars": 1' + "0" * 5000 + "}"],
                         ids=["nested-100000", "integer-5001-digits"])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, text):
    # the nesting raised RecursionError out of json.loads, and verify exited 1
    # with a traceback; the integer raised a bare ValueError
    with pytest.raises(FixtureParseError, match="invalid JSON"):
        loads_pencil(text)
    path = tmp_path / "pencil.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


# -- bundled fixtures --------------------------------------------------------


def test_all_fixtures_parse():
    for name in FIXTURE_NAMES:
        pen = fixture_parse(name)
        assert pen.nvars >= 1 and pen.source_dim >= 1


def test_fixture_rank_anchors():
    gl = fixture_parse("gl_s2_s21")
    assert qq_rank(gl.evaluate([1, 1, 1])) == 5
    sp = fixture_parse("sp6_wedge2_corrected")
    assert qq_rank(sp.evaluate([1, 2, 3, 4, 5, 6])) == 9
    # the unmodified transcription is preserved for reference and is NOT of
    # constant rank; a flagged discrepancy, not silently corrected
    raw = fixture_parse("sp6_wedge2")
    assert qq_rank(raw.evaluate([1, 2, 3, 4, 5, 6])) == 11
    spin = fixture_parse("spin10_mdelta")
    assert qq_rank(spin.evaluate(list(range(1, 17)))) == 9


def test_fixture_text_parse_errors_carry_location():
    with pytest.raises(FixtureParseError, match=r"t:2:2"):
        parse_fixture_text("vars x,y\nx,bogus_token\n", "t")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("x,y\n", "t")  # missing vars header
    with pytest.raises(FixtureParseError):
        parse_fixture_text("vars x,y\nx,y\nx\n", "t")  # ragged row


def test_fixture_transpose():
    pen = fixture_parse("gl_s2_s21")
    pent = fixture_parse("gl_s2_s21", transpose=True)
    assert (pent.target_dim, pent.source_dim) == (pen.source_dim,
                                                  pen.target_dim)
    assert qq_rank(pent.evaluate([1, 1, 1])) == 5


# -- catalog runner ----------------------------------------------------------


def test_run_catalog_filter_and_order():
    cfg = CatalogRunConfig()
    results = run_catalog("koszul-*", cfg)
    assert [r.entry_id for r in results] == ["koszul-flattening",
                                            "koszul-rank-critical"]
    assert all(r.status == "pass" for r in results)


def test_run_entry_keeps_the_traceback():
    def _failing_helper():
        raise RuntimeError("boom")

    def check(cfg, result):
        _failing_helper()

    res = run_entry(CatalogEntry("crash", "raises", check), CatalogRunConfig())
    assert res.status == "fail"
    assert "_failing_helper" in res.failures[0]
    assert "RuntimeError: boom" in res.failures[0]


def test_sampled_entries_drop_zero_draws():
    # x_i on diagonal entry i: a point's rank is its number of nonzero
    # coordinates.  At prime 3 and seed 24 the second of five draws is the
    # zero point and the others have three nonzero coordinates, so the zero
    # draw read as e_1 added rank 1, which no drawn point has
    pen = Pencil(4, 4, 4, tuple((i, i, i, 1) for i in range(4)), 1, ("a", "b", "c", "d"))
    points = random_points(random.Random(24), 5, 4, 3)
    assert (points != 0).sum(axis=1).tolist() == [3, 0, 3, 3, 3]
    assert ranks_at(pen, [[1, 0, 0, 0]], 3) == [1]
    assert catalog._sample_ranks(pen, 3, random.Random(24), 5) == {3}


# -- command line ------------------------------------------------------------


def test_cli_build_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    assert cli.main(["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2",
                     "--out", str(out)]) == 0
    pen, builder = loads_pencil(out.read_text())
    assert builder == {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}
    assert (pen.source_dim, pen.target_dim) == (6, 8)

    assert cli.main(["verify", str(out), "--mode", "exhaustive",
                     "--prime", "5", "--expect-rank", "5",
                     "--expect-verdict", "constant"]) == 0
    first = capsys.readouterr().out

    assert cli.main(["verify", str(out), "--mode", "exhaustive",
                     "--prime", "5"]) == 0
    assert capsys.readouterr().out == first

    payload = json.loads(first)
    assert payload["verdict"] == "constant"
    assert payload["generic_rank"] == 5
    assert payload["method"]["prime"] == 5


def test_cli_verify_sampled_matches_in_memory_report(tmp_path, capsys):
    from crpencils.analysis import constant_rank_verdict

    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "4", "--out", str(out)])
    assert cli.main(["verify", str(out), "--mode", "sampled",
                     "--trials", "25", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pen, _ = loads_pencil(out.read_text())
    rep = constant_rank_verdict(pen, "sampled", trials=25, seed=11)
    expected = rep.to_jsonable()
    assert payload == expected
    assert payload["method"]["seed"] == 11
    assert payload["method"]["trials"] == 25


def test_cli_verify_transitivity_uses_builder_metadata(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    cli.main(["build", "sp", "--mu", "1,1", "--nu", "1,1,1", "--N", "6",
              "--out", str(out)])
    assert cli.main(["verify", str(out), "--mode", "transitivity",
                     "--expect-rank", "9"]) == 0
    capsys.readouterr()


def test_cli_transitivity_refuses_an_edited_entry(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    cli.main(["build", "sp", "--mu", "1,1", "--nu", "1,1,1", "--N", "6",
              "--out", str(out)])
    doc = json.loads(out.read_text())
    entry = doc["entries"][0]
    entry["num"] = str(int(entry["num"]) + int(entry["den"]))  # still reduced
    out.write_text(json.dumps(doc))
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    assert "equivariance certificate failed" in capsys.readouterr().err


def test_cli_transitivity_refuses_a_record_of_other_dimensions(tmp_path, capsys):
    # a GL(3) record (6 -> 8) on the 3-variable Koszul 3 -> 3 pencil
    out = tmp_path / "pencil.json"
    out.write_text(dumps_pencil(build_koszul_pencil(1, 3),
                                {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}))
    assert loads_pencil(out.read_text())[0].spec is None
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "GL, Sp or Koszul build record that describes the file" in err
    assert "Traceback" not in err


def test_cli_transitivity_refuses_a_long_row_record_before_building(tmp_path, capsys):
    # S_9 -> S_91 of GL(3) is 55 -> 99: the closed forms refuse the 3 -> 3
    # Koszul file at once, where building S_9 and S_91 takes seconds
    record = {"kind": "gl", "mu": [9], "nu": [9, 1], "v": 3}
    out = tmp_path / "pencil.json"
    out.write_text(dumps_pencil(build_koszul_pencil(1, 3), record))
    loaded = loads_pencil(out.read_text())[0]
    assert loaded.spec is None
    assert BuildSpec.from_record(record).shape() == (3, 55, 99)
    before = equivariance_data.cache_info().misses, schur_module.cache_info().misses
    assert not check_equivariance(loaded)
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "GL, Sp or Koszul build record that describes the file" in err
    assert "Traceback" not in err
    assert (equivariance_data.cache_info().misses, schur_module.cache_info().misses) == before


def _one_entry_file(path, nvars: int, record: dict) -> None:
    """A 1 x 1 pencil of nvars variables, x_1 alone, with the given record."""
    path.write_text(dumps_pencil(
        Pencil(nvars, 1, 1, ((0, 0, 0, 1),), 1, tuple(f"x_{i + 1}" for i in range(nvars))),
        record))


def test_a_document_without_entries_certifies_constant_rank_zero(tmp_path, capsys):
    # the zero pencil of the right shape is trivially equivariant: the
    # empty arrays of its coefficients must join and sum to nothing
    record = {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}
    out = tmp_path / "pencil.json"
    out.write_text(dumps_pencil(Pencil(3, 6, 8, (), 1, ("x_1", "x_2", "x_3")), record))
    loaded = loads_pencil(out.read_text())[0]
    assert (loaded.coeffs, loaded.spec) == ((), BuildSpec.from_record(record))
    assert check_equivariance(loaded)
    rep = constant_rank_verdict(loaded, "transitivity")
    assert (rep.verdict, rep.generic_rank) == ("constant", 0)
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_a_record_of_another_shape_is_refused_before_any_module_dimension(
        tmp_path, capsys, monkeypatch):
    # sp (1) -> (1, 1) at N = 1024 passed the variable count alone, and
    # check_equivariance then spent 46 s in the Weyl products of its dims
    def forbidden(*args):
        raise AssertionError("a module dimension was formed")

    monkeypatch.setattr(pencils, "sp_module_dim", forbidden)
    record = {"kind": "sp", "mu": [1], "nu": [1, 1], "N": 1024}
    out = tmp_path / "pencil.json"
    _one_entry_file(out, 1024, record)
    loaded = loads_pencil(out.read_text())[0]
    assert loaded.spec is None
    assert not check_equivariance(replace(loaded, spec=BuildSpec("sp", ((1,), (1, 1), 1024))))
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "GL, Sp or Koszul build record that describes the file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("record", [
    {"kind": "so", "mu": [], "nu": [1], "m": 1},
    {"kind": "sp", "mu": [], "nu": [1], "N": 3},
], ids=["so-m1", "sp-odd-N"])
def test_a_record_without_closed_forms_does_not_describe_a_file(tmp_path, record):
    out = tmp_path / "pencil.json"
    _one_entry_file(out, record.get("m", record.get("N")), record)
    loaded = loads_pencil(out.read_text())[0]
    assert loaded.spec is None
    assert not check_equivariance(replace(loaded, spec=BuildSpec.from_record(record)))


def test_an_so_record_on_a_gl_file_labels_no_so_strata(tmp_path):
    # GL (2) -> (2, 1) at v = 4 has the 4 variables of SO(4) (2) -> (2, 1);
    # trusted for its variable count, the record drew isotropic and
    # non-isotropic points of a group that does not act on the file
    gl = build_from_params({"kind": "gl", "mu": [2], "nu": [2, 1], "v": 4})
    text = dumps_pencil(gl, {"kind": "so", "mu": [2], "nu": [2, 1], "m": 4})
    loaded = loads_pencil(text)[0]
    assert loaded.spec is None
    rep = constant_rank_verdict(loaded, "sampled", trials=20, seed=1)
    assert {cls for _, _, cls in rep.strata} == {"coordinate", "generic"}


@pytest.mark.parametrize("nvars, record", [
    (2, {"kind": "sp", "mu": [], "nu": [], "N": 1 << 20}),
    (2, {"kind": "gl", "mu": [], "nu": [1] * (1 << 16), "v": 1 << 16}),
    (1024, {"kind": "sp", "mu": [], "nu": [], "N": 1024}),
], ids=["sp-N2^20", "gl-det-v2^16", "sp-N1024"])
def test_a_record_that_builds_nothing_is_refused_before_any_module_dimension(
        tmp_path, capsys, monkeypatch, nvars, record):
    # no builder takes these pairs (nu is not one box more than mu); their
    # floors of 1 passed every size guard, and the Weyl products over all
    # pairs of rows then ran for minutes (48 s at N = 1024)
    def forbidden(*args):
        raise AssertionError("a module dimension was formed")

    for name in ("so_module_dim", "sp_module_dim", "gl_dim"):
        monkeypatch.setattr(pencils, name, forbidden)
    with pytest.raises(ValueError, match="is not a one-box addition"):
        BuildSpec.from_record(record).shape()
    out = tmp_path / "pencil.json"
    _one_entry_file(out, nvars, record)
    assert loads_pencil(out.read_text())[0].spec is None
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "GL, Sp or Koszul build record that describes the file" in err
    assert "Traceback" not in err


def test_an_so_record_with_a_zero_target_is_refused_before_its_source_dimension():
    # (2^512, 1) has 513 + 512 boxes in its first two columns, past m:
    # the floors cannot bound the source (2^512), whose Weyl product over
    # 512 rows of so(1024) then ran as long as the trivial weight's, 24 s
    start = perf_counter()
    for record in ({"kind": "so", "mu": [2] * 512, "nu": [2] * 512 + [1], "m": 1024},
                   {"kind": "so", "mu": [2], "nu": [2, 1], "m": 2}):
        with pytest.raises(ValueError, match="is out of range for SO"):
            build_from_params(record)
    assert perf_counter() - start < 2


def test_equivariance_generators_are_bounded_before_they_are_formed(
        tmp_path, capsys, monkeypatch):
    # gl () -> (1) at v = 1024 describes a 1 x 1024 pencil of 1,024
    # variables; its certificate formed 2,046 dense 1024 x 1024 Chevalley
    # generators and ran past a 30 s timeout
    def forbidden(*args):
        raise AssertionError("the equivariance data was formed")

    monkeypatch.setattr(pencils, "equivariance_data", forbidden)
    record = {"kind": "gl", "mu": [], "nu": [1], "v": 1024}
    spec = BuildSpec.from_record(record)
    assert spec.shape() == (1024, 1, 1024)
    assert pencils.generator_cells(spec) == 2046 * 1024 ** 2
    out = tmp_path / "pencil.json"
    out.write_text(dumps_pencil(Pencil(1024, 1, 1024, ((0, 0, 0, 1),), 1,
                                       tuple(f"x_{i + 1}" for i in range(1024))), record))
    loaded = loads_pencil(out.read_text())[0]
    assert loaded.spec == spec
    with pytest.raises(ValueError, match="equivariance generators exceed"):
        check_equivariance(loaded)
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "equivariance generators exceed" in err
    assert "Traceback" not in err
    # the bound still takes GL up to v = 80, Sp up to N = 100 and SO up to
    # m = 101: 2 (v - 1) v^2, N^3, and (m - 1) m^2 or m^3 cells
    cells = {(kind, n): pencils.generator_cells(BuildSpec(kind, ((), (1,), n)))
             for kind, n in (("gl", 80), ("gl", 81), ("sp", 100), ("sp", 102),
                             ("so", 101), ("so", 102))}
    assert cells == {("gl", 80): 1_011_200, ("gl", 81): 1_049_760, ("sp", 100): 1_000_000,
                     ("sp", 102): 1_061_208, ("so", 101): 1_020_100, ("so", 102): 1_061_208}
    assert [c <= pencils.MAX_PENCIL_CELLS for c in cells.values()] == [True, False] * 3


def test_cli_build_refuses_a_pencil_that_verify_would_refuse(tmp_path, capsys):
    # 11 x 462 x 462 cells are past MAX_PENCIL_CELLS: verify exits 3 on such
    # a file, so build writes none; spin n=30 is refused before its 2^29
    # basis sets are listed
    out = tmp_path / "pencil.json"
    assert cli.main(["build", "koszul", "--k", "5", "--v", "11", "--out", str(out)]) == 2
    assert "exceeds 1048576 coefficient cells" in capsys.readouterr().err
    assert not out.exists()
    before = build_spin_pencil.cache_info().misses
    assert cli.main(["build", "spin", "--n", "30", "--out", str(out)]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists() and build_spin_pencil.cache_info().misses == before


@pytest.mark.parametrize("argv", [["spin", "--n", "100000"],
                                  ["koszul", "--k", "20000", "--v", "40000"]])
def test_cli_build_refuses_a_huge_record_by_its_size(tmp_path, capsys, argv):
    # both printed "Exceeds the limit (4300 digits) for integer string
    # conversion": the size message formatted 2^99999 and C(40000, 20000)
    out = tmp_path / "pencil.json"
    assert cli.main(["build", *argv, "--out", str(out)]) == 2
    assert "exceeds 1048576 coefficient cells" in capsys.readouterr().err
    assert not out.exists()


def test_spin_record_is_refused_before_its_dimension_is_formed():
    # 2^(10^7 - 1) variables: forming that number took 0.14 s and 1.25 MB
    tracemalloc.start()
    try:
        start = perf_counter()
        with pytest.raises(ValueError, match="exceeds 1048576 coefficient cells"):
            build_from_params({"kind": "spin", "n": 10 ** 7})
        seconds = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.05 and peak < 100_000


@pytest.mark.parametrize("record", [
    {"kind": "so", "mu": [1], "nu": [1, 1], "m": 300},
    {"kind": "so", "mu": [1], "nu": [1, 1], "m": 600},
    {"kind": "sp", "mu": [1], "nu": [1, 1], "N": 600},
    {"kind": "gl", "mu": [1], "nu": [2], "v": 600},
    {"kind": "so", "mu": [10 ** 9], "nu": [10 ** 9, 1], "m": 3},
    {"kind": "gl", "mu": [10 ** 9, 5], "nu": [10 ** 9 + 1, 5], "v": 2},
], ids=["so-m300", "so-m600", "sp-N600", "gl-v600", "so-long-row", "gl-long-row"])
def test_form_records_are_refused_before_any_module_dimension(monkeypatch, record):
    # `build so --mu 1 --nu 1,1 --N 600` took 20 s in the Weyl products of dims()
    def forbidden(*args):
        raise AssertionError("a module dimension was formed")

    for name in ("so_module_dim", "sp_module_dim", "gl_dim"):
        monkeypatch.setattr(pencils, name, forbidden)
    with pytest.raises(ValueError, match="exceeds 1048576 coefficient cells"):
        build_from_params(record)


def _long_row_file(path) -> list[str]:
    """A 2-variable, 41-entry file that gl (40) -> (41) at v = 2 describes."""
    path.write_text(dumps_pencil(Pencil(2, 41, 42, tuple((0, i, i, 1) for i in range(41)), 1,
                                        ("x_1", "x_2")),
                                 {"kind": "gl", "mu": [40], "nu": [41], "v": 2}))
    assert loads_pencil(path.read_text())[0].spec == BuildSpec("gl", ((40,), (41,), 2))
    return ["verify", str(path), "--mode", "transitivity"]


@pytest.mark.parametrize("argv", [
    ["build", "gl", "--mu", "40", "--nu", "41", "--n", "1"],
    ["build", "so", "--mu", "12", "--nu", "13", "--N", "3"],
    ["build", "so", "--mu", "20", "--nu", "21", "--N", "3"],
    ["build", "sp", "--mu", "30", "--nu", "31", "--N", "2"],
    None,
], ids=["gl-v2", "so-m3-12", "so-m3-20", "sp-N2", "gl-v2-file-transitivity"])
def test_long_row_records_are_refused_before_any_module_is_realized(
        tmp_path, capsys, monkeypatch, argv):
    # each pencil is small, so no cell bound saw these records; the row
    # passes of their symmetrizers then formed up to 2^41 words and exited 1
    # with numpy._ArrayMemoryError after 18-36 s
    def forbidden(*args):
        raise AssertionError("a module was realized")

    argv = argv or _long_row_file(tmp_path / "pencil.json")
    for name in ("schur_module", "symplectic_module", "orthogonal_module", "apply_symmetrizer"):
        monkeypatch.setattr(pencils, name, forbidden)
    monkeypatch.setattr(modules, "apply_symmetrizer", forbidden)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"the {argv[1] if argv[0] == 'build' else 'gl'} module words exceed 1048576 cells" in err
    assert "Traceback" not in err


def test_a_long_partition_is_refused_before_its_boxes_are_walked(monkeypatch):
    # at m = 2 the row of 10^9 boxes has dims (2, 2, 2), which no cell
    # bound refuses, and so_module_dim would walk every box in conjugate
    def forbidden(*args):
        raise AssertionError("a partition was conjugated")

    monkeypatch.setattr(partitions, "conjugate", forbidden)
    monkeypatch.setattr(pencils, "conjugate", forbidden)
    with pytest.raises(ValueError, match="exceeds 1048576 coefficient cells"):
        build_from_params({"kind": "so", "mu": [10 ** 9], "nu": [10 ** 9 + 1], "m": 2})


def test_loaded_sp6_file_certifies_constant_rank():
    params = {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}
    loaded, _ = loads_pencil(dumps_pencil(build_from_params(params), params))
    rep = constant_rank_verdict(loaded, "transitivity")
    assert (rep.verdict, rep.generic_rank) == ("constant", 9)


def test_cli_exit_codes(tmp_path, capsys):
    # usage error: missing required builder flags
    assert cli.main(["build", "gl", "--mu", "2"]) == 2
    capsys.readouterr()
    # expectation failure
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    assert cli.main(["verify", str(out), "--trials", "5",
                     "--expect-rank", "99"]) == 1
    capsys.readouterr()
    # parse error
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["verify", str(bad)]) == 3
    capsys.readouterr()
    # transitivity without builder metadata is a usage error
    plain = tmp_path / "plain.json"
    plain.write_text(dumps_pencil(build_koszul_pencil(1, 3)))
    assert cli.main(["verify", str(plain), "--mode", "transitivity"]) == 2
    capsys.readouterr()
    # a pencil that cannot be written: into a missing directory, onto a
    # directory, and to a full stdout, which only a child process can have
    build = ["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2"]
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(build + ["--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")
    src = str(Path(cli.__file__).parents[1])
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "crpencils.cli", *build],
                              stdout=full, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def test_cli_verify_into_a_closed_pipe_exits_141_quietly(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    assert cli.main(["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    read, write = os.pipe()
    os.close(read)  # no reader: the child's first write fails with EPIPE
    src = str(Path(cli.__file__).parents[1])
    try:
        proc = subprocess.run([sys.executable, "-m", "crpencils.cli", "verify", str(out)],
                              stdout=write, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_cli_verify_unreadable_files_are_parse_errors(tmp_path, capsys):
    binary = tmp_path / "pencil.json"
    binary.write_bytes(b"\xff\xfe{")
    assert cli.main(["verify", str(binary)]) == 3
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 3
    assert capsys.readouterr().err.count("parse error") == 2


def test_cli_verify_reads_at_most_the_byte_bound(tmp_path, capsys, monkeypatch):
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    size = out.stat().st_size
    monkeypatch.setattr(cli, "MAX_PENCIL_BYTES", size)
    assert cli.main(["verify", str(out), "--trials", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_PENCIL_BYTES", size - 1)
    assert cli.main(["verify", str(out), "--trials", "5"]) == 3
    # an endless file is refused after the bound plus one byte
    assert cli.main(["verify", "/dev/zero"]) == 3
    assert capsys.readouterr().err == f"parse error: file exceeds {size - 1} bytes\n" * 2


def test_loads_refuses_more_json_values_than_the_bound(tmp_path, capsys, monkeypatch):
    # 13 million empty lists in a 39 MB file, far below the byte bound, ran
    # json.loads into a MemoryError; the count of brackets, braces and
    # commas refuses such a text before json.loads builds anything
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    text = out.read_text()
    count = sum(map(text.count, "[{,"))
    monkeypatch.setattr(catalog, "MAX_PENCIL_VALUES", count)
    assert cli.main(["verify", str(out), "--trials", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(catalog, "MAX_PENCIL_VALUES", count - 1)

    def forbidden(*args, **kw):
        raise AssertionError("json.loads ran")

    monkeypatch.setattr(json, "loads", forbidden)
    with pytest.raises(FixtureParseError, match=f"more than {count - 1} JSON values"):
        loads_pencil(text)
    assert cli.main(["verify", str(out), "--trials", "5"]) == 3
    assert capsys.readouterr().err == (
        f"parse error: pencil document holds more than {count - 1} JSON values\n")


def test_json_value_bound_holds_every_pencil_admit_passes():
    # a canonical entry counts six values, and the header of a 1,024-label
    # file with an Sp record at admit's largest N fits the header's 4,096
    labels = tuple(f"x_{i + 1}" for i in range(1024))
    record = {"kind": "sp", "mu": [1] * 50, "nu": [2] + [1] * 49, "N": 100}

    def count(entries):
        pen = Pencil(1024, 1, 1, tuple((v, 0, 0, 1) for v in range(entries)), 1, labels)
        return sum(map(dumps_pencil(pen, record).count, "[{,"))

    assert count(3) - count(2) == 6
    assert count(1) <= 6 + 4096
    assert pencils.MAX_PENCIL_VALUES == 6 * pencils.MAX_PENCIL_CELLS + 4096


@pytest.mark.parametrize("prime", ["9", "15", "1", "2146654199"])
def test_cli_rejects_non_prime(tmp_path, capsys, prime):
    # 2146654199 = 46337 * 46327
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    for mode in ("sampled", "exhaustive"):
        assert cli.main(["verify", str(out), "--mode", mode, "--prime", prime]) == 2
    assert cli.main(["catalog", "--filter", "koszul-flattening", "--prime", prime]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"),
                                        ("--budget", "0"), ("--budget", "x")])
def test_cli_rejects_non_positive_counts(tmp_path, capsys, flag, value):
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    for argv in (["verify", str(out)], ["catalog", "--filter", "koszul-flattening"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, value])
        assert exc.value.code == 2
    capsys.readouterr()


def test_cli_budget_bounds_the_sampled_trials(tmp_path, capsys):
    # --trials had no bound: 10^20 trials ran until a 20 s timeout
    out = tmp_path / "pencil.json"
    cli.main(["build", "koszul", "--k", "1", "--v", "3", "--out", str(out)])
    assert cli.main(["verify", str(out), "--trials", "99999999999999999999"]) == 2
    assert ("error: 99999999999999999999 projective points exceed budget 1000000"
            in capsys.readouterr().err)
    assert cli.main(["verify", str(out), "--trials", "5", "--budget", "4"]) == 2
    assert "5 projective points exceed budget 4" in capsys.readouterr().err
    assert cli.main(["verify", str(out), "--trials", "5", "--budget", "5"]) == 0
    capsys.readouterr()


def test_loaded_so_and_spin_files_keep_structured_points():
    params = {"kind": "so", "mu": [2], "nu": [2, 1], "m": 5}
    pen, _ = loads_pencil(dumps_pencil(build_from_params(params), params))
    assert pen.spec.kind == "so"
    rep = constant_rank_verdict(pen, "sampled", trials=5, seed=0)
    assert any(cls == "isotropic" for _, _, cls in rep.strata)
    spin = {"kind": "spin", "n": 5}
    assert loads_pencil(dumps_pencil(build_from_params(spin), spin))[0].spec.kind == "spin"
    # a record that disagrees with the shape, or is malformed, is not trusted
    text = dumps_pencil(build_koszul_pencil(1, 3))
    for record in ({"kind": "so", "m": 4}, {"kind": "spin", "n": 10 ** 9},
                   {"kind": "so"}, ["so"], "spin"):
        doc = json.loads(text)
        doc["builder"] = record
        assert loads_pencil(json.dumps(doc))[0].spec is None
    # one variable is too few for isotropic or pure-spinor points
    one = dumps_pencil(Pencil(nvars=1, source_dim=1, target_dim=1, coeffs=((0, 0, 0, 1),),
                              denom=1, var_labels=("x",)))
    for record in ({"kind": "so", "m": 1}, {"kind": "so", "m": True}, {"kind": "spin", "n": 1}):
        doc = json.loads(one)
        doc["builder"] = record
        pen = loads_pencil(json.dumps(doc))[0]
        assert pen.spec is None
        assert constant_rank_verdict(pen, "sampled", trials=3).generic_rank == 1


def test_cli_catalog_subcommand(capsys):
    assert cli.main(["catalog", "--filter", "no-such-entry"]) == 2
    capsys.readouterr()
    assert cli.main(["catalog", "--filter", "koszul-flattening",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in payload] == ["koszul-flattening"]
    rec = payload[0]
    assert rec["status"] == "pass"
    assert {"prime", "seed"} <= set(rec)
    assert rec["details"] == {"flattening rank": 18, "border-rank bound": 9}
    assert cli.main(["catalog", "--filter", "hyperplane-bound",
                     "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "1/1 passed" in text and "seed=0" in text


# sha256 of the `crpencils build` JSON, recorded before the factored
# symmetrizer and the F_p-lifted RREF: the eight scripts/build_examples.py
# records, then the SO (3,1,1) -> (3,2,1) m=5 hook, the one record whose
# target symmetrizer takes four passes.  Its m=6 build, the largest, was
# recorded before qq_rref returned the integer-scaled RREF.
BUILD_DIGESTS = [
    (["gl", "--mu", "2", "--nu", "2,1", "--n", "2"],
     "4f8b6039622e41136b2a81dfff9e9592719874714b8b9d5b834c0645d5ea7545"),
    (["gl", "--mu", "2,2", "--nu", "2,2,1", "--n", "3"],
     "a76b8dc44e7da377149126d92c236732759a06809ed6fcd5f6e7c5c4f0d2be43"),
    (["gl", "--mu", "2,1", "--nu", "2,1,1", "--n", "3"],
     "206159bbba691b2b89a0de049287c9eea69d3bd530013f8e893d3d969b36d34a"),
    (["koszul", "--k", "2", "--v", "6"],
     "7fa02a0e19ff4817f723aed392b64e4fe3a06372078258f708445a24b4869c83"),
    (["sp", "--mu", "1,1", "--nu", "1,1,1", "--N", "6"],
     "2b93c65e83b79ff4179da72db08ccd90c410d75d4cf2991265be5e60d8e8785a"),
    (["so", "--mu", "2", "--nu", "2,1", "--N", "3"],
     "aaf5c570ae399cad97c40bc5381ddc90626f7bf895ab4b4a9cfbe0221a85a694"),
    (["spin", "--n", "5"],
     "a884d974d48aa2178b7780c425ecc034af08e913d593282fe5f5d9c7371d2cb8"),
    (["adjoint", "--a", "7"],
     "f290bb208de476b17f6bf8ba2e12d892e925dd87ba0a771ea41f1dd6227b972f"),
    (["so", "--mu", "3,1,1", "--nu", "3,2,1", "--N", "5"],
     "59949cc963ef52dcdcd3ea433aa46c51e1e89bde4d177843d40556a78b085426"),
    (["so", "--mu", "3,1,1", "--nu", "3,2,1", "--N", "6"],
     "1ba57f6f670b2edc0a4858074ae84258b78bc652833303943c1ac25026596a24"),
]


@pytest.mark.parametrize("argv,digest", BUILD_DIGESTS,
                         ids=["".join(argv).replace("--", "-") for argv, _ in BUILD_DIGESTS])
def test_cli_build_json_digest_is_unchanged(tmp_path, argv, digest):
    out = tmp_path / "pencil.json"
    assert cli.main(["build", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_build_so_below_rank_one_is_a_usage_error(capsys):
    # SO(1) has rank 0: its weights used to raise IndexError in weyl_dim
    assert cli.main(["build", "so", "--mu", "", "--nu", "1", "--N", "1"]) == 2
    assert "error: SO(m) needs m >= 2" in capsys.readouterr().err


def test_cli_transitivity_refuses_a_gl_file_with_one_variable_doubled(tmp_path, capsys):
    # A_0 -> 2 A_0 keeps every torus weight but breaks sl_3-equivariance
    out = tmp_path / "pencil.json"
    assert cli.main(["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for entry in doc["entries"]:
        if entry["var"] == 0:
            assert entry["den"] == "1"
            entry["num"] = str(2 * int(entry["num"]))
    out.write_text(json.dumps(doc))
    assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
    err = capsys.readouterr().err
    assert "equivariance certificate failed" in err
    assert "Traceback" not in err


def test_cli_verify_infinite_numbers_are_parse_errors(tmp_path, capsys):
    # json reads Infinity as a float, and int(inf) raised OverflowError
    text = dumps_pencil(build_koszul_pencil(1, 3))
    for path in (("nvars",), ("entries", 0, "row"), ("entries", 1, "num")):
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", str(bad)]) == 3
        assert "parse error" in capsys.readouterr().err


def test_cli_verify_unhashable_builder_kind_is_no_record(tmp_path, capsys):
    # a list or object "kind" raised TypeError in BuildSpec.from_record
    params = {"kind": "koszul", "k": 1, "v": 3}
    for kind in (["koszul"], {"kind": "koszul"}):
        doc = json.loads(dumps_pencil(build_from_params(params), params))
        doc["builder"]["kind"] = kind
        out = tmp_path / "pencil.json"
        out.write_text(json.dumps(doc))
        assert loads_pencil(out.read_text())[0].spec is None
        assert cli.main(["verify", str(out), "--trials", "3"]) == 0
        assert cli.main(["verify", str(out), "--mode", "transitivity"]) == 2
        assert "Traceback" not in capsys.readouterr().err


# -- robustness: small arbitrary flags and mutated documents -----------------


def _exit_code(argv, capsys) -> int:
    """The exit code of `crpencils argv`: argparse exits through SystemExit,
    anything else that escapes fails the test with its traceback."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert "Traceback" not in capsys.readouterr().err
    return code


_partition_flag = st.lists(st.integers(-1, 4), max_size=3).map(
    lambda xs: ",".join(map(str, xs)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("gl", "sp", "so", "spin", "koszul", "adjoint")),
       st.fixed_dictionaries({}, optional={
           **{flag: _partition_flag for flag in ("--mu", "--nu")},
           **{flag: st.integers(-2, 4) for flag in ("--n", "--N", "--k", "--v", "--a")},
       }))
def test_cli_build_exits_cleanly_on_small_flags(tmp_path, capsys, group, flags):
    argv = ["build", group, *(f"{f}={x}" for f, x in flags.items()),
            "--out", str(tmp_path / "pencil.json")]
    assert _exit_code(argv, capsys) in (0, 1, 2, 3)


_MUTATION_RECORDS = [
    {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3},
    {"kind": "gl", "mu": [1], "nu": [1, 1], "v": 2},
    {"kind": "koszul", "k": 1, "v": 3},
    {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6},
    {"kind": "so", "mu": [2], "nu": [2, 1], "m": 3},
]

_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.integers(),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(("kind", "k", "v")), st.integers(0, 3), max_size=2),
    st.sampled_from(("gl", "sp", "so", "spin", "koszul", "adjoint", "1", "1/2")),
)


@st.composite
def _mutated_documents(draw):
    """A builder example's JSON document with one to three fields of the
    document, its builder record or its entries replaced or deleted."""
    params = draw(st.sampled_from(_MUTATION_RECORDS))
    doc = json.loads(dumps_pencil(build_from_params(params), params))
    for _ in range(draw(st.integers(1, 3))):
        nodes = [doc]
        if isinstance(doc.get("builder"), dict):
            nodes.append(doc["builder"])
        if isinstance(doc.get("entries"), list):
            nodes += [e for e in doc["entries"] if isinstance(e, dict)]
        node = draw(st.sampled_from([n for n in nodes if n]))
        key = draw(st.sampled_from(sorted(node)))
        if draw(st.integers(0, 5)) == 0:
            del node[key]
        else:
            node[key] = draw(_json_values)
    return doc


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_documents(), st.sampled_from(("sampled", "exhaustive", "transitivity")),
       st.sampled_from(("3", "5", "7", str(2 ** 31 - 1))))
def test_cli_verify_exits_cleanly_on_mutated_documents(tmp_path, capsys, doc, mode, prime):
    out = tmp_path / "pencil.json"
    out.write_text(json.dumps(doc))
    argv = ["verify", str(out), "--mode", mode, "--prime", prime,
            "--trials", "3", "--budget", "3000"]
    assert _exit_code(argv, capsys) in (0, 1, 2, 3)


# -- what a verify report and a pencil document say ---------------------------


@pytest.mark.parametrize("mode,argv,method", [
    ("exhaustive", ["--prime", "5"], {"kind": "exhaustive", "prime": 5, "points": 31}),
    ("sampled", ["--trials", "7", "--seed", "3"],
     {"kind": "sampled", "prime": 2147483629, "trials": 7, "seed": 3}),
    ("transitivity", ["--seed", "3"],
     {"kind": "transitivity", "prime": 2147483629, "seed": 3, "equivariance": "exact"}),
])
def test_cli_verify_method_names_only_what_the_mode_used(tmp_path, capsys, mode, argv, method):
    out = tmp_path / "pencil.json"
    assert cli.main(["build", "gl", "--mu", "2", "--nu", "2,1", "--n", "2",
                     "--out", str(out)]) == 0
    assert cli.main(["verify", str(out), "--mode", mode, *argv]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == method


def _koszul_document():
    return json.loads(dumps_pencil(build_koszul_pencil(1, 3)))


def _entry_field(key, value):
    def edit(doc):
        doc["entries"][0][key] = value
    return edit


def _header_field(key, value):
    def edit(doc):
        doc[key] = value
    return edit


# a non-integer where an integer belongs, or labels that are not a list of
# strings: int() and str() used to read these as 3, 2, 1 and ('a', 'b')
_NOT_INTEGERS = {
    "num-float": _entry_field("num", 3.9),
    "num-integral-float": _entry_field("num", 1.0),
    "num-bool": _entry_field("num", True),
    "num-signed-string": _entry_field("num", "+1"),
    "num-spaced-string": _entry_field("num", " 1"),
    "den-fraction-string": _entry_field("den", "1/1"),
    "row-bool": _entry_field("row", False),
    "var-string-float": _entry_field("var", "0.0"),
    "nvars-float": _header_field("nvars", 2.9),
    "nvars-bool": _header_field("nvars", True),
    "source-dim-list": _header_field("source_dim", [3]),
    "labels-string": _header_field("var_labels", "abc"),
    "labels-numbers": _header_field("var_labels", [1, 2, 3]),
}


@pytest.mark.parametrize("edit", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS)
def test_pencil_document_refuses_what_is_not_an_integer(tmp_path, capsys, edit):
    doc = _koszul_document()
    edit(doc)
    with pytest.raises(FixtureParseError):
        loads_pencil(json.dumps(doc))
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_pencil_document_reads_json_integers_and_decimal_strings():
    doc = _koszul_document()
    want = loads_pencil(json.dumps(doc))[0]
    doc["nvars"] = str(doc["nvars"])
    for e in doc["entries"]:
        e["var"], e["num"], e["den"] = str(e["var"]), int(e["num"]), int(e["den"])
    assert loads_pencil(json.dumps(doc))[0] == want
