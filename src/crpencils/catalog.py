"""Catalog of worked examples with expected results, plus file formats.

Each catalog entry is a check routine, declared with its id and description
by @_entry, that rebuilds the example and verifies every stated invariant
(dimensions, generic rank, constancy certificates, kernel vectors,
rank-criticality) into an EntryResult: result.eq and result.true record each
measured value under its label, and each missed expectation as a failure.  The module also provides the bundled fixture matrices,
their text-format parser, and the JSON serialization of pencils used by the
command line.
"""

from __future__ import annotations

import json
import random
import re
import traceback
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from importlib import resources
from math import ceil, comb, gcd, lcm
from operator import attrgetter, itemgetter, lt
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .analysis import (
    constant_rank_verdict,
    generic_rank,
    koszul_flattening_rank,
    predict_gl_decomposition,
    predict_so_nonisotropic,
    random_points,
    ranks_at,
    rnd,
    structured_points,
    theta_rank_formula,
)
from .linalg import DEFAULT_PRIME, check_prime, qq_rank
from .modules import orthogonal_form, orthogonal_module, spin_space
from .partitions import (
    GroupSpec,
    family_sizes,
    gl_dim,
    hook_family_rank,
    horizontal_strips,
    pieri_add,
    so_module_dim,
    sp_module_dim,
    weyl_dim,
)
from .pencils import (
    MAX_PENCIL_VALUES,
    BuildSpec,
    Pencil,
    _one_box,
    admit,
    build_adjoint_pencil,
    build_gl_pencil,
    build_koszul_pencil,
    build_so_pencil,
    build_sp_pencil,
    build_spin_pencil,
    describes,
    hyperplane_bound_criterion,
    spin_kernel_vector,
    theta_map,
)
from .modules import a_vector, exp_two_form
from .tensors import WordBatch, perm_sign, tensor_iadd


# ---------------------------------------------------------------------------
# fixture text format


class FixtureParseError(ValueError):
    """Malformed fixture or pencil file contents."""


FIXTURE_NAMES = (
    "gl_s2_s21",
    "sp6_wedge2",
    "sp6_wedge2_corrected",
    "spin10_mdelta",
)


def _fixture_text(name: str) -> str:
    path = resources.files("crpencils") / "fixtures" / f"{name}.txt"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FixtureParseError(f"no bundled fixture named {name!r}") from None


def parse_fixture_text(text: str, name: str = "<fixture>",
                       transpose: bool = False) -> Pencil:
    """Parse the one-row-per-line symbolic matrix format.

    Lines: optional `#` comments, one `vars a,b,c` header, optional
    `let alias = [-]var` lines, then comma-separated rows whose entries are
    `0` or signed variable/alias names.  Errors report line and column.
    """
    var_index: dict[str, tuple[int, int]] = {}
    labels: list[str] = []
    rows: list[list[tuple[int, int]]] = []  # (var, sign) per cell, var -1 = zero
    ncols = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vars "):
            if labels:
                raise FixtureParseError(f"{name}:{lineno}: duplicate vars header")
            labels = [v.strip() for v in line[5:].split(",")]
            if len(set(labels)) != len(labels) or not all(labels):
                raise FixtureParseError(f"{name}:{lineno}: bad variable list")
            var_index = {v: (i, 1) for i, v in enumerate(labels)}
            continue
        if line.startswith("let "):
            try:
                alias, rhs = (s.strip() for s in line[4:].split("="))
            except ValueError:
                raise FixtureParseError(f"{name}:{lineno}: malformed let") from None
            sign = 1
            if rhs.startswith("-"):
                sign, rhs = -1, rhs[1:].strip()
            if rhs not in var_index or alias in var_index:
                raise FixtureParseError(f"{name}:{lineno}: bad alias {alias!r}")
            i, s = var_index[rhs]
            var_index[alias] = (i, sign * s)
            continue
        if not labels:
            raise FixtureParseError(f"{name}:{lineno}: row before vars header")
        cells = []
        for colno, tok in enumerate(line.split(","), start=1):
            tok = tok.strip()
            sign = 1
            if tok.startswith("-"):
                sign, tok = -1, tok[1:].strip()
            if tok == "0":
                cells.append((-1, 0))
            elif tok in var_index:
                i, s = var_index[tok]
                cells.append((i, sign * s))
            else:
                raise FixtureParseError(
                    f"{name}:{lineno}:{colno}: unknown entry {tok!r}"
                )
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise FixtureParseError(
                f"{name}:{lineno}: expected {ncols} entries, got {len(cells)}"
            )
        rows.append(cells)
    if not labels or not rows:
        raise FixtureParseError(f"{name}: missing vars header or matrix rows")
    nrows, ncols = len(rows), len(rows[0])
    coeffs = [
        (i, c, r, s) if transpose else (i, r, c, s)
        for r, cells in enumerate(rows)
        for c, (i, s) in enumerate(cells)
        if i >= 0
    ]
    if transpose:
        nrows, ncols = ncols, nrows
    return Pencil(
        nvars=len(labels),
        source_dim=ncols,
        target_dim=nrows,
        coeffs=tuple(sorted(coeffs)),
        denom=1,
        var_labels=tuple(labels),
    )


def fixture_parse(name: str, transpose: bool = False) -> Pencil:
    """Load a bundled fixture matrix as a Pencil in its printed coordinates."""
    return parse_fixture_text(_fixture_text(name), name, transpose)


# ---------------------------------------------------------------------------
# PencilFile JSON serialization


# one entry of the canonical text, keys sorted: col, den, num, row, var
_ENTRY = ('    {\n      "col": %d,\n      "den": "%d",\n      "num": "%d",\n'
          '      "row": %d,\n      "var": %d\n    }')
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")  # comma-separated integers
_ENTRY_COLUMNS = itemgetter("var", "row", "col", "num", "den")


def _nested_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) one level deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def dumps_pencil(p: Pencil, builder_params: Optional[dict] = None) -> str:
    """The canonical JSON text of a pencil, byte for byte
    json.dumps(document, indent=2, sort_keys=True) + "\\n" of the document
    {builder, entries, nvars, source_dim, target_dim, var_labels}: each
    entry {col, den, num, row, var} is num / den reduced by its own gcd,
    num and den as decimal strings, in the pencil's (var, row, col) order.
    The entries are written by one % template each; the builder record and
    the labels go through json.dumps."""
    d = p.denom
    entries = ",\n".join([_ENTRY % (c, d // (g := gcd(x, d)), x // g, r, var)
                          for var, r, c, x in p.coeffs])
    builder = ("" if builder_params is None
               else f'  "builder": {_nested_json(builder_params)},\n')
    entries = f"[\n{entries}\n  ]" if entries else "[]"
    return (f'{{\n{builder}  "entries": {entries},\n  "nvars": {p.nvars},\n'
            f'  "source_dim": {p.source_dim},\n  "target_dim": {p.target_dim},\n'
            f'  "var_labels": {_nested_json(list(p.var_labels))}\n}}\n')


def _json_ints(values) -> list:
    """The integers of a column of JSON integers and decimal strings; a
    float, a bool or anything else is refused, not truncated."""
    types = set(map(type, values))
    if types <= {int}:
        return list(values)
    strings = values if types == {str} else [x for x in values if type(x) is str]
    # one match over the strings joined by commas; a string that holds a
    # comma of its own adds one to the count, so it cannot pass as two
    text = ",".join(strings)
    if not (types <= {int, str} and text.count(",") == len(strings) - 1
            and _DECIMALS.fullmatch(text)):
        bad = next(x for x in values if not (
            type(x) is int or type(x) is str and _DECIMALS.fullmatch(x) and "," not in x))
        raise FixtureParseError(f"expected an integer, got {bad!r}")
    try:
        return list(map(int, values))
    except ValueError as exc:  # past the interpreter's digit limit
        raise FixtureParseError(f"malformed pencil entry: {exc}") from None


def document_to_pencil(doc: dict) -> Pencil:
    """Parse a PencilFile document; raises FixtureParseError when malformed.
    The entries are read a column at a time: var, row, col, num and den each
    become one list, checked as a whole for type, sign, reduction, range,
    order and duplicates."""
    try:
        nvars, source_dim, target_dim = _json_ints(
            [doc["nvars"], doc["source_dim"], doc["target_dim"]])
        labels = doc["var_labels"]
        raw = list(doc["entries"])  # any iterable, as when read entry by entry
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"malformed pencil document: {exc}") from None
    if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
        raise FixtureParseError("var_labels must be a list of strings")
    labels = tuple(labels)
    if len(labels) != nvars or nvars < 1 or source_dim < 1 or target_dim < 1:
        raise FixtureParseError("inconsistent pencil document header")
    try:
        admit(nvars, source_dim, target_dim)
    except ValueError as exc:
        raise FixtureParseError(str(exc)) from None
    if not raw:
        return Pencil(nvars, source_dim, target_dim, (), 1, labels)
    try:
        columns = zip(*map(_ENTRY_COLUMNS, raw))
    except (KeyError, TypeError) as exc:  # a missing key, or not an object
        raise FixtureParseError(f"malformed pencil entry: {exc!r}") from None
    vs, rs, cs, nums, dens = map(_json_ints, columns)
    if min(dens) <= 0 or set(map(gcd, nums, dens)) != {1}:
        raise FixtureParseError("entries must be reduced with den > 0")
    if not (0 <= min(vs) and max(vs) < nvars and 0 <= min(rs) and max(rs) < target_dim
            and 0 <= min(cs) and max(cs) < source_dim):
        raise FixtureParseError("entry index out of range")
    keys = list(zip(vs, rs, cs))
    if not all(map(lt, keys, keys[1:])):
        if keys != sorted(keys):
            raise FixtureParseError("entries must be sorted by (var, row, col)")
        raise FixtureParseError("duplicate entry in pencil document")
    denom = lcm(*set(dens))
    return Pencil(nvars, source_dim, target_dim,
                  tuple((v, r, c, num * (denom // den))
                        for v, r, c, num, den in zip(vs, rs, cs, nums, dens) if num),
                  denom, labels)


def loads_pencil(text: str) -> tuple[Pencil, Optional[dict]]:
    """The pencil of a JSON document and its raw builder record.  The pencil
    gets the record's spec when the record parses and describes it (its
    closed-form shape is the document's); nothing is built.  A text of
    more than MAX_PENCIL_VALUES JSON values, counted as its opening
    brackets and braces and its commas (those inside strings too), raises
    FixtureParseError before json.loads builds any of them; so does any
    text that json.loads cannot read (malformed, nested past the recursion
    limit, or with an integer past the interpreter's digit limit).  Each
    counted value is one character, so a shorter text is not counted."""
    if len(text) > MAX_PENCIL_VALUES and sum(map(text.count, "[{,")) > MAX_PENCIL_VALUES:
        raise FixtureParseError(f"pencil document holds more than {MAX_PENCIL_VALUES} JSON values")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FixtureParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FixtureParseError("pencil document must be a JSON object")
    pencil, record = document_to_pencil(doc), doc.get("builder")
    try:
        spec = BuildSpec.from_record(record)
    except ValueError:  # no record, or one that does not parse
        return pencil, record
    if describes(spec, pencil):
        pencil = replace(pencil, spec=spec)
    return pencil, record


def build_from_params(params: dict) -> Pencil:
    """Build the pencil of a builder record; raises ValueError when the
    record is malformed or admit refuses its closed-form shape, before
    anything is built.  The builder is looked up by name at call time."""
    spec = BuildSpec.from_record(params)
    admit(*spec.shape(), spec)
    return globals()[f"build_{spec.kind}_pencil"](*spec.args)


# ---------------------------------------------------------------------------
# catalog entries


@dataclass(frozen=True)
class CatalogRunConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self) -> None:
        check_prime(self.prime)


@dataclass
class EntryResult:
    """What a check records: each labelled value it measured in details, and
    each expectation it missed in failures."""
    entry_id: str
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def eq(self, label: str, got, want) -> None:
        self.details[label] = got
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")

    def true(self, label: str, ok: bool) -> None:
        self.details[label] = bool(ok)
        if not ok:
            self.failures.append(f"{label}: expected to hold")


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    description: str
    check: Callable[[CatalogRunConfig, EntryResult], None]


_ENTRIES: list[CatalogEntry] = []


def _entry(entry_id: str, description: str):
    """Declare the decorated check as the catalog entry entry_id."""
    def register(check):
        _ENTRIES.append(CatalogEntry(entry_id, description, check))
        return check
    return register


def _sample_ranks(pencil: Pencil, prime: int, rng: random.Random,
                  count: int) -> set[int]:
    """The ranks at the nonzero ones of `count` random points, as the
    sampled verdict draws them."""
    points = random_points(rng, count, pencil.nvars, prime)
    return set(ranks_at(pencil, points[points.any(axis=1)], prime))


# -- GL entries -------------------------------------------------------------


@_entry("gl-one-box-predictions",
        "kernel/image/cokernel of one-box pencils from horizontal strips, "
        "with injectivity exactly for first-row boxes")
def _check_gl_one_box(cfg: CatalogRunConfig, result: EntryResult) -> None:
    cases = [
        ((2,), (3,), 3),
        ((2,), (2, 1), 3),
        ((1, 1), (2, 1), 3),
        ((2, 2), (2, 2, 1), 3),
        ((3, 1), (3, 2), 3),
        ((2, 1), (2, 2), 4),
    ]
    rng = random.Random(cfg.seed)
    for mu, nu, v in cases:
        tag = f"{mu}->{nu} v={v}"
        pen = build_gl_pencil(mu, nu, v)
        pred = predict_gl_decomposition(mu, nu, v)
        result.eq(f"{tag} source", pen.source_dim, pred.kernel_dim + pred.image_dim)
        ranks = _sample_ranks(pen, cfg.prime, rng, 25)
        result.eq(f"{tag} sampled ranks", ranks, {pred.image_dim})
        result.eq(f"{tag} injective iff first-row box",
                  pred.kernel_dim == 0, _one_box(mu, nu, v).row == 1)


@_entry("gl-sym2-family",
        "S_2 -> S_21 family: sizes ((n+2)(n+1)/2, n(n+1)(n+2)/3) and "
        "constant rank (n^2+3n)/2, certified by transitivity")
def _check_gl_sym2_family(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for n in range(2, 6):
        a, b, r = family_sizes("GL_2_21", n=n)
        pen = build_gl_pencil((2,), (2, 1), n + 1)
        result.eq(f"n={n} dims", (pen.source_dim, pen.target_dim), (a, b))
        rep = constant_rank_verdict(pen, "transitivity", cfg.prime,
                                    seed=cfg.seed)
        result.eq(f"n={n} transitivity verdict", rep.verdict, "constant")
        result.eq(f"n={n} rank", rep.generic_rank, r)
        if n <= 3:
            rep3 = constant_rank_verdict(pen, "exhaustive", prime=3)
            result.eq(f"n={n} exhaustive F3",
                      (rep3.verdict, rep3.generic_rank), ("constant", r))


@_entry("gl-sym2-fixture",
        "bundled 6x8 matrix in x,y,z: constant rank 5 over F5, matching "
        "the constructed pencil's stratification")
def _check_gl_sym2_fixture(cfg: CatalogRunConfig, result: EntryResult) -> None:
    fix = fixture_parse("gl_s2_s21")
    result.eq("shape as printed",
              (fix.nvars, fix.target_dim, fix.source_dim), (3, 6, 8))
    fixT = fixture_parse("gl_s2_s21", transpose=True)
    result.eq("transposed shape", (fixT.target_dim, fixT.source_dim), (8, 6))
    result.eq("rank at (1,1,1) over Q", qq_rank(fix.evaluate([1, 1, 1])), 5)
    rep = constant_rank_verdict(fix, "exhaustive", prime=5)
    result.eq("fixture exhaustive F5", (rep.verdict, rep.generic_rank), ("constant", 5))
    cons = build_gl_pencil((2,), (2, 1), 3)
    repc = constant_rank_verdict(cons, "exhaustive", prime=5)
    result.eq("constructed/fixture F5 strata agree",
              sorted(r for r, _, _ in repc.strata),
              sorted(r for r, _, _ in rep.strata))


@_entry("gl-sym2-rank-neutral",
        "rank neutral directions of the 6x8 space: strictly larger, "
        "dimension 18 = 3 + dim S_31(C^3)")
def _check_gl_sym2_rank_neutral(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_gl_pencil((2,), (2, 1), 3)
    rep = rnd(pen, cfg.prime, seed=cfg.seed)
    result.eq("verdict", rep.verdict, "strictly-larger")
    result.eq("neutral-direction dim", rep.space.dim, 18)
    result.eq("dim splits as 3 + dim S_31(C^3)",
              rep.space.dim, pen.nvars + gl_dim((3, 1), 3))


@_entry("gl-sym22-family",
        "S_22 -> S_221 family: 20x20 constant rank 14 at n=3 with "
        "predicted decomposition (6,14,6)")
def _check_gl_sym22_family(cfg: CatalogRunConfig, result: EntryResult) -> None:
    rng = random.Random(cfg.seed)
    pen = build_gl_pencil((2, 2), (2, 2, 1), 4)
    result.eq("n=3 shape", (pen.target_dim, pen.source_dim), (20, 20))
    pred = predict_gl_decomposition((2, 2), (2, 2, 1), 4)
    result.eq("n=3 predicted (ker, im, coker)",
              (pred.kernel_dim, pred.image_dim, pred.cokernel_dim), (6, 14, 6))
    result.eq("n=3 sampled ranks (100 points)",
              _sample_ranks(pen, cfg.prime, rng, 100), {14})
    rep = constant_rank_verdict(pen, "transitivity", cfg.prime, seed=cfg.seed)
    result.eq("n=3 constant rank", (rep.verdict, rep.generic_rank), ("constant", 14))
    _, _, r4 = family_sizes("GL_22_221", n=4)
    result.eq("n=4 closed-form rank",
              generic_rank(build_gl_pencil((2, 2), (2, 2, 1), 5), cfg.prime,
                           trials=10, seed=cfg.seed), r4)


@_entry("gl-hook-family",
        "hook family (2,1^b) -> (2,1^{b+1}): 15x20 rank 11 at (1,1,3) and "
        "the closed-form rank for n <= 5, b <= 2")
def _check_gl_hook_family(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_gl_pencil((2, 1), (2, 1, 1), 4)
    result.eq("(a,b,n)=(1,1,3) shape", (pen.target_dim, pen.source_dim), (15, 20))
    rep = constant_rank_verdict(pen, "transitivity", cfg.prime, seed=cfg.seed)
    result.eq("(a,b,n)=(1,1,3) constant rank",
              (rep.verdict, rep.generic_rank), ("constant", 11))
    for b in range(3):
        for n in range(max(2, b + 1), 6):
            mu = (2,) + (1,) * b
            nu = (2,) + (1,) * (b + 1)
            got = generic_rank(build_gl_pencil(mu, nu, n + 1), cfg.prime,
                               trials=8, seed=cfg.seed)
            result.eq(f"rank formula n={n} b={b}", got, hook_family_rank(n, b))


@_entry("koszul-flattening",
        "flattening V* (x) S_2 -> Lambda^2 V* (x) S_21 has full rank 18, "
        "border-rank bound 9")
def _check_koszul_flattening(cfg: CatalogRunConfig, result: EntryResult) -> None:
    r = koszul_flattening_rank((2,), (2, 1), 3)
    result.eq("flattening rank", r, 18)
    result.eq("border-rank bound", ceil(r / 2), 9)


# -- Koszul / rank-criticality ---------------------------------------------


@_entry("koszul-rank-critical",
        "wedge pencils Lambda^k -> Lambda^{k+1} for k <= 2, v <= 5: "
        "constant rank C(v-1,k) and rank-critical, certified")
def _check_koszul_rank_critical(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for k, v in [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5)]:
        pen = build_koszul_pencil(k, v)
        rep = constant_rank_verdict(pen, "transitivity", cfg.prime,
                                    seed=cfg.seed)
        result.eq(f"k={k} v={v} constant rank",
                  (rep.verdict, rep.generic_rank), ("constant", comb(v - 1, k)))
        report = rnd(pen, cfg.prime, seed=cfg.seed)
        result.eq(f"k={k} v={v} criticality", report.verdict, "rank-critical-certified")


# -- adjoint / hyperplane ---------------------------------------------------


@_entry("adjoint-wedge3-c7",
        "sl(7) acting on a generic 3-form: 35-variable 35x48 pencil of "
        "generic rank 34")
def _check_adjoint_c7(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_adjoint_pencil(7)
    result.eq("shape", (pen.nvars, pen.target_dim, pen.source_dim), (35, 35, 48))
    r = generic_rank(pen, cfg.prime, trials=20, seed=cfg.seed)
    result.eq("generic rank (20 samples)", r, 34)
    result.true("not surjective", r < pen.target_dim)


@_entry("adjoint-wedge3-c8",
        "sl(8) acting on a generic 3-form: never surjective onto the "
        "56-dimensional target")
def _check_adjoint_c8(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_adjoint_pencil(8)
    result.eq("shape", (pen.nvars, pen.target_dim, pen.source_dim), (56, 56, 63))
    r = generic_rank(pen, cfg.prime, trials=20, seed=cfg.seed)
    result.details["measured generic rank"] = r
    result.true("rank at most 55", r <= 55)
    result.true("not surjective", r < pen.target_dim)


@_entry("hyperplane-bound",
        "dimension-count criterion for bounded rank: (3,2) -> (3,2,1,1) "
        "at p=2 gives kernel bound 40 with s(5) = 175 on both sides")
def _check_hyperplane_bound(cfg: CatalogRunConfig, result: EntryResult) -> None:
    result.eq("criterion at lam=(3,2), mu=(3,2,1,1), p=2",
              hyperplane_bound_criterion((3, 2), (3, 2, 1, 1), 2), (True, 40))
    result.eq("s_lam(5)", gl_dim((3, 2), 5), 175)
    result.eq("s_mu(5)", gl_dim((3, 2, 1, 1), 5), 175)


# -- induced operator (Eagon-Northcott) -------------------------------------


def _smith_rep(a: int, b: int, r: int) -> list[list[int]]:
    return [[1 if i == j and i < r else 0 for j in range(b)] for i in range(a)]


def _theta_rank(X) -> int:
    return qq_rank(theta_map(X, (2,), (1,), (1,), (1, 1))[0])


@_entry("eagon-northcott-rank-formula",
        "closed-form rank of S^2A(x)B -> A(x)Lambda^2B at Smith "
        "representatives, all a,b <= 4")
def _check_theta_formula(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for a in range(1, 5):
        for b in range(1, 5):
            for r in range(min(a, b) + 1):
                want = theta_rank_formula(a, b, r)
                if gl_dim((1, 1), b) == 0:
                    result.eq(f"a={a} b={b} r={r} (zero target)", want, 0)
                    continue
                result.eq(f"a={a} b={b} r={r}", _theta_rank(_smith_rep(a, b, r)), want)


def _random_rank_r(rng: random.Random, a: int, b: int, r: int):
    while True:
        p = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(a)]
        q = [[rng.randint(-3, 3) for _ in range(b)] for _ in range(r)]
        x = [[sum(p[i][k] * q[k][j] for k in range(r)) for j in range(b)]
             for i in range(a)]
        if r == 0 or qq_rank(x) == r:
            return x


@_entry("eagon-northcott-rank-dependence",
        "rank of the induced operator depends only on rank(X): 20 random "
        "X per shape")
def _check_theta_rank_dependence(cfg: CatalogRunConfig, result: EntryResult) -> None:
    rng = random.Random(cfg.seed)
    for a, b in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        for r in range(min(a, b) + 1):
            want = theta_rank_formula(a, b, r)
            got = {_theta_rank(_random_rank_r(rng, a, b, r))
                   for _ in range(20)}
            result.eq(f"a={a} b={b} r={r} over 20 random X", got, {want})


# -- symplectic entries -----------------------------------------------------


def _one_box_neighbors(mu: tuple, max_rows: int) -> list[tuple]:
    """mu plus or minus one box, with at most max_rows rows."""
    return [nu for nu, _ in pieri_add(mu, max_rows)] + horizontal_strips(mu, 1)


@_entry("sp-branching",
        "symplectic branching dimension identities and non-surjectivity of "
        "the one-box pencils")
def _check_sp_branching(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for two_n in (4, 6):
        n = two_n // 2
        for mu in [(1,), (2,), (1, 1)]:
            if len(mu) > n:
                continue
            lhs = two_n * sp_module_dim(mu, two_n)
            rhs = sum(sp_module_dim(nu, two_n)
                      for nu in _one_box_neighbors(mu, n))
            result.eq(f"2n={two_n} mu={mu} branching dims", lhs, rhs)
    pen = build_sp_pencil((1,), (1, 1), 4)
    rep = constant_rank_verdict(pen, "exhaustive", prime=3)
    result.true("2n=4 (1)->(1,1) never surjective over F3",
                rep.generic_rank < pen.target_dim)
    pen2 = build_sp_pencil((2,), (2, 1), 6)
    rng = random.Random(cfg.seed)
    ranks = _sample_ranks(pen2, cfg.prime, rng, 50)
    result.true("2n=6 (2)->(2,1) never surjective (50 samples)",
                max(ranks) < pen2.target_dim)


@_entry("sp6-wedge2-pencil",
        "Sp(6) wedge-square pencil: 6-variable 14x14 of constant rank 9, "
        "certified by transitivity and exhaustively over F3")
def _check_sp6_pencil(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_sp_pencil((1, 1), (1, 1, 1), 6)
    result.eq("shape", (pen.nvars, pen.target_dim, pen.source_dim), (6, 14, 14))
    rep = constant_rank_verdict(pen, "transitivity", cfg.prime, seed=cfg.seed)
    result.eq("transitivity certificate",
              (rep.verdict, rep.generic_rank), ("constant", 9))
    rep3 = constant_rank_verdict(pen, "exhaustive", prime=3)
    result.eq("exhaustive F3", (rep3.verdict, rep3.generic_rank), ("constant", 9))


@_entry("sp6-wedge2-fixture",
        "bundled 14x14 matrix in x_1..x_6: rank 9 at random and coordinate "
        "points, stratification matching the constructed pencil")
def _check_sp6_fixture(cfg: CatalogRunConfig, result: EntryResult) -> None:
    fix = fixture_parse("sp6_wedge2_corrected")
    result.eq("shape", (fix.nvars, fix.target_dim, fix.source_dim), (6, 14, 14))
    rng = random.Random(cfg.seed)
    ranks = _sample_ranks(fix, cfg.prime, rng, 200)
    result.eq("rank at 200 random points", ranks, {9})
    coord = set(ranks_at(fix, np.eye(6, dtype=np.int64), cfg.prime))
    result.eq("rank at all coordinate points", coord, {9})
    rep = constant_rank_verdict(fix, "exhaustive", prime=5)
    cons = build_sp_pencil((1, 1), (1, 1, 1), 6)
    repc = constant_rank_verdict(cons, "exhaustive", prime=5)
    result.eq("constructed/fixture F5 strata agree",
              sorted(r for r, _, _ in repc.strata),
              sorted(r for r, _, _ in rep.strata))
    # the unmodified transcription is preserved and flagged: its rank is 9
    # only on the coordinate orbit, so it cannot be the equivariant map
    raw = fixture_parse("sp6_wedge2")
    raw_rep = constant_rank_verdict(raw, "exhaustive", prime=5)
    result.eq("verbatim transcription flagged (suspected erratum): F5 strata",
              sorted(r for r, _, _ in raw_rep.strata), [9, 10, 11])
    coord_raw = set(ranks_at(raw, np.eye(6, dtype=np.int64), cfg.prime))
    result.eq("verbatim transcription rank at coordinate points", coord_raw, {9})
    result.details["erratum"] = (
        "row 1: entries x_1, -x_6, x_5 displaced one column left; "
        "row 2: final entry should be +x_5"
    )


@_entry("sp6-koszul-expansion",
        "expanded wedge pencil Lambda^2 C^6 -> Lambda^3 C^6 of constant "
        "rank 10 with rank(expanded) = rank(reduced) + 1")
def _check_sp6_koszul_expansion(cfg: CatalogRunConfig, result: EntryResult) -> None:
    expanded = build_koszul_pencil(2, 6)
    rep = constant_rank_verdict(expanded, "transitivity", cfg.prime,
                                seed=cfg.seed)
    result.eq("expanded constant rank",
              (rep.verdict, rep.generic_rank), ("constant", 10))
    reduced = build_sp_pencil((1, 1), (1, 1, 1), 6)
    rng = random.Random(cfg.seed)
    points = random_points(rng, 100, 6, cfg.prime)
    points = points[points.any(axis=1)]
    ok = all(re_ == rr + 1 for re_, rr in zip(
        ranks_at(expanded, points, cfg.prime), ranks_at(reduced, points, cfg.prime)))
    result.true("block relation rank(expanded) = rank(reduced) + 1 (100 points)", ok)


# -- orthogonal entries -----------------------------------------------------


def _so_sym2_kernel_tensor(v: list[int], m: int):
    """The traceless kernel tensor m*(v x v) - q(v)*qhat at an integer
    point v, in integers."""
    form = orthogonal_form(m)
    t = {(i, j): m * v[i] * v[j] for i in range(m) for j in range(m) if v[i] and v[j]}
    return tensor_iadd(t, form.dual_tensor(), -form.quadratic(v))


@_entry("so-sym2-family",
        "traceless S_2 -> S_21 orthogonal family: m=3 gives a 5x5 constant "
        "rank 4 pencil; kernel line m*v^2 - q(v)*qhat")
def _check_so_sym2_family(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for m in (3, 4, 5):
        a, b, r = family_sizes("SO_2_21", m=m)
        pen = build_so_pencil((2,), (2, 1), m)
        result.eq(f"m={m} dims", (pen.source_dim, pen.target_dim), (a, b))
        result.eq(f"m={m} generic rank",
                  generic_rank(pen, cfg.prime, trials=10, seed=cfg.seed), r)
    pen3 = build_so_pencil((2,), (2, 1), 3)
    rep = constant_rank_verdict(pen3, "exhaustive", prime=13)
    result.eq("m=3 exhaustive F13 (isotropic points included)",
              (rep.verdict, rep.generic_rank), ("constant", 4))
    samp = constant_rank_verdict(pen3, "sampled", prime=13, trials=50,
                                 seed=cfg.seed)
    result.true("m=3 sampled strata include isotropic class",
                any(cls == "isotropic" for _, _, cls in samp.strata))
    result.eq("m=3 sampled ranks", {r for r, _, _ in samp.strata}, {4})
    rng = random.Random(cfg.seed)
    smod = None
    ok = True
    for m in (3, 4, 5):
        pen = build_so_pencil((2,), (2, 1), m)
        smod = orthogonal_module((2,), m)
        for _ in range(100 if m == 3 else 20):
            v = [rng.randint(-9, 9) for _ in range(m)]
            if not any(v):
                v[0] = 1
            t = _so_sym2_kernel_tensor(v, m)
            _, k, c, outside = smod.span.coordinates(WordBatch.from_tensors([t], 2, m))
            coords = np.zeros(smod.dim, dtype=object)
            coords[k] = c.tolist()
            if outside[0] or any(pen.evaluate(v) @ coords):
                ok = False
                break
        if not ok:
            break
    result.true("kernel tensor m*v^2 - q(v)*qhat annihilated exactly", ok)


@_entry("so-hook-corank",
        "(3,1,1) -> (3,2,1) orthogonal family: constant corank "
        "C(m-1,3)+C(m-1,2) at isotropic and non-isotropic points, m = 5,6")
def _check_so_hook_corank(cfg: CatalogRunConfig, result: EntryResult) -> None:
    rng = random.Random(cfg.seed)
    for m in (5, 6):
        pen = build_so_pencil((3, 1, 1), (3, 2, 1), m)
        want_kernel = comb(m - 1, 3) + comb(m - 1, 2)
        pts = structured_points(pen, cfg.prime, rng, count=50)
        pts = [(x, cls) for x, cls in pts if cls != "coordinate"]
        coranks = {"isotropic": set(), "non-isotropic": set()}
        for r, (_, cls) in zip(ranks_at(pen, [x for x, _ in pts], cfg.prime), pts):
            coranks[cls].add(pen.source_dim - r)
        result.eq(f"m={m} corank at isotropic points",
                  coranks["isotropic"], {want_kernel})
        result.eq(f"m={m} corank at non-isotropic points",
                  coranks["non-isotropic"], {want_kernel})


@_entry("so-branching-kernels",
        "orthogonal branching: dimension identities and predicted kernel "
        "dimensions 1/10/20 matching measured ranks")
def _check_so_branching(cfg: CatalogRunConfig, result: EntryResult) -> None:
    for m in (5, 6, 7):
        for mu in [(1,), (2,), (1, 1)]:
            lhs = m * so_module_dim(mu, m)
            rhs = sum(so_module_dim(nu, m)
                      for nu in _one_box_neighbors(mu, m))
            result.eq(f"m={m} mu={mu} branching dims", lhs, rhs)
    result.eq("predicted kernel (2)->(2,1) m=3",
              predict_so_nonisotropic((2,), (2, 1), 3).kernel_dim, 1)
    result.eq("predicted kernel (2)->(2,1) m=5",
              predict_so_nonisotropic((2,), (2, 1), 5).kernel_dim, 1)
    result.eq("predicted kernel (3,1,1)->(3,2,1) m=5",
              predict_so_nonisotropic((3, 1, 1), (3, 2, 1), 5).kernel_dim, 10)
    result.eq("predicted kernel (3,1,1)->(3,2,1) m=6",
              predict_so_nonisotropic((3, 1, 1), (3, 2, 1), 6).kernel_dim, 20)
    pen = build_so_pencil((2,), (2, 1), 5)
    pred = predict_so_nonisotropic((2,), (2, 1), 5)
    rng = random.Random(cfg.seed)
    pts = [x for x, cls in structured_points(pen, cfg.prime, rng, count=20)
           if cls == "non-isotropic"]
    ranks = set(ranks_at(pen, pts, cfg.prime))
    result.eq("m=5 non-isotropic rank matches prediction", ranks, {pred.image_dim})


# -- spin entries -----------------------------------------------------------


def _spin_var_vector(delta: dict, even_basis: list) -> list:
    return [delta.get(I, 0) for I in even_basis]


def _random_pure_spinor(rng: random.Random) -> dict:
    pairs = [I for I in spin_space(5).even_basis if len(I) == 2]
    return exp_two_form({I: rng.randint(-5, 5) for I in pairs})


@_entry("spin10-pencil",
        "Spin(10) half-spinor pencil: 16-variable 16x10, rank 9 / kernel 1 "
        "generically, kernel spanned by the quadratic equivariant vector")
def _check_spin10_pencil(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_spin_pencil(5)
    result.eq("shape", (pen.nvars, pen.target_dim, pen.source_dim), (16, 16, 10))
    rng = random.Random(cfg.seed)
    ranks = _sample_ranks(pen, cfg.prime, rng, 200)
    result.eq("rank at 200 random deltas", ranks, {9})
    e0 = [1] + [0] * 15
    result.eq("rank at delta = e_empty", ranks_at(pen, [e0], cfg.prime)[0], 5)
    even_basis = spin_space(5).even_basis
    ok_prop, ok_kernel = True, True
    for _ in range(100):
        delta = {I: rng.randint(-5, 5) for I in even_basis}
        kv = spin_kernel_vector(delta)
        av = a_vector(delta, 5)
        if [4 * c for c in kv] != av:
            ok_prop = False
        mat = pen.evaluate(_spin_var_vector(delta, even_basis))
        if any(mat @ kv) or any(mat @ av):
            ok_kernel = False
    result.true("kernel map proportional to gamma pairing", ok_prop)
    result.true("both kernel vectors annihilated exactly (100 deltas)", ok_kernel)
    ok_pure = all(
        not any(a_vector(_random_pure_spinor(rng), 5)) for _ in range(100)
    )
    result.true("all ten components of a vanish on pure spinors (100 samples)", ok_pure)


def _spin_fixture_h(delta_of: Callable[[tuple], int]) -> list[int]:
    """The orthogonal vector (h_1..h_5, h_1*..h_5*) for the bundled matrix."""
    def d(i: int, j: int) -> int:
        return delta_of((min(i, j), max(i, j)))

    def theta(m: int) -> int:
        rest = tuple(sorted(set(range(1, 6)) - {m}))
        return perm_sign((m,) + rest) * delta_of(rest)

    h = []
    for i in range(1, 6):
        h.append(sum(d(i, j) * theta(j) for j in range(i + 1, 6))
                 - sum(d(i, j) * theta(j) for j in range(1, i)))
    for i in range(1, 6):
        j, k, l, m = sorted(set(range(1, 6)) - {i})
        quad = d(j, k) * d(l, m) - d(j, l) * d(k, m) + d(j, m) * d(k, l)
        h.append(delta_of(()) * theta(i) + (-1) ** i * quad)
    return h


@_entry("spin10-fixture",
        "bundled 16x10 half-spinor matrix: rank 9 generically, 5 at "
        "delta = e_empty, image orthogonal to the quadratic h-vector")
def _check_spin10_fixture(cfg: CatalogRunConfig, result: EntryResult) -> None:
    fix = fixture_parse("spin10_mdelta")
    result.eq("shape", (fix.nvars, fix.target_dim, fix.source_dim), (16, 16, 10))
    rng = random.Random(cfg.seed)
    ranks = _sample_ranks(fix, cfg.prime, rng, 200)
    result.eq("rank at 200 random deltas", ranks, {9})
    e0 = [1] + [0] * 15
    result.eq("rank at delta = e_empty", ranks_at(fix, [e0], cfg.prime)[0], 5)
    # variable order in the file: delta_0, the ten pairs, the five 4-subsets
    subsets = ([()]
               + [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
               + [tuple(sorted(set(range(1, 6)) - {m}))
                  for m in (5, 4, 3, 2, 1)])
    ok = True
    for _ in range(100):
        vals = {s: rng.randint(-5, 5) for s in subsets}
        mat = fix.evaluate([vals[s] for s in subsets])
        h = _spin_fixture_h(lambda s: vals[s])
        if any(mat @ h):
            ok = False
            break
    result.true("rows orthogonal to the h-vector (image is its perp hyperplane)", ok)


@_entry("spin10-rank-critical",
        "rank neutral directions of the half-spinor space equal the space "
        "itself (dimension 16)")
def _check_spin10_rank_critical(cfg: CatalogRunConfig, result: EntryResult) -> None:
    pen = build_spin_pencil(5)
    rep = rnd(pen, cfg.prime, seed=cfg.seed)
    result.eq("criticality verdict", rep.verdict, "rank-critical-certified")
    result.eq("pencil span dimension", rep.pencil_span_dim, 16)


# -- dimension bookkeeping --------------------------------------------------


@_entry("dimension-bookkeeping",
        "Weyl-dimension checks for the large bounded-rank spaces "
        "(no pencil construction)")
def _check_dimension_bookkeeping(cfg: CatalogRunConfig, result: EntryResult) -> None:
    result.eq("Sp(6) wedge-square module", weyl_dim(GroupSpec("Sp", 6), (1, 1)), 14)
    result.eq("wedge criterion source at p=5", gl_dim((2, 2, 2, 2, 2), 10), 19404)
    result.eq("wedge criterion target at p=5", gl_dim((2, 2, 2, 2, 2, 1, 1), 10), 20790)
    d6 = GroupSpec("SO", 12)
    result.eq("Spin(12) half-spin (variables)",
              weyl_dim(d6, (1,) * 6, doubled=True), 32)
    result.eq("so(12) = wedge-square (target)", weyl_dim(d6, (1, 1)), 66)
    result.eq("Spin(12) syzygy module (source)",
              weyl_dim(d6, (3, 1, 1, 1, 1, -1), doubled=True), 352)
    d7 = GroupSpec("SO", 14)
    result.eq("Spin(14) half-spin (variables)",
              weyl_dim(d7, (1,) * 7, doubled=True), 64)
    result.eq("wedge-cube of C^14 (target)", gl_dim((1, 1, 1), 14), 364)
    result.eq("binomial(2n, n-4) at n=7", comb(14, 3), 364)
    result.eq("Spin(14) syzygy space (source)",
              weyl_dim(d7, (1,) * 7, doubled=True)
              + weyl_dim(d7, (3, 3, 1, 1, 1, 1, 1), doubled=True), 4992)


# ---------------------------------------------------------------------------
# the catalog itself


CATALOG = tuple(sorted(_ENTRIES, key=attrgetter("entry_id")))


def run_entry(entry: CatalogEntry, cfg: CatalogRunConfig) -> EntryResult:
    result = EntryResult(entry.entry_id)
    t0 = perf_counter()
    try:
        entry.check(cfg, result)
    except Exception:  # a crash is a failed expectation, not a crash of the run
        trace = traceback.format_exc(limit=-3).strip()
        result.details, result.failures = {}, [f"exception: {trace}"]
    result.seconds = perf_counter() - t0
    return result


def run_catalog(filter_glob: str = "*",
                cfg: CatalogRunConfig = CatalogRunConfig()) -> list[EntryResult]:
    """Run every matching entry; results sorted by id, as CATALOG is."""
    return [run_entry(e, cfg) for e in CATALOG if fnmatch(e.entry_id, filter_glob)]
