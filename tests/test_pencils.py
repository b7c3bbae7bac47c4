"""Builder-level anchors: shapes, ranks, equivariance, kernel vectors."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crpencils import pencils, tensors
from crpencils.analysis import constant_rank_verdict, generic_rank, random_points, ranks_at
from crpencils.catalog import (
    FIXTURE_NAMES,
    build_from_params,
    dumps_pencil,
    fixture_parse,
    loads_pencil,
)
from crpencils.linalg import DEFAULT_PRIME, qq_rank
from crpencils.modules import (
    a_vector,
    form_lie_generators,
    gamma_pairing,
    lie_action,
    orthogonal_form,
    orthogonal_module,
    schur_module,
    spin_space,
    symplectic_form,
    symplectic_module,
)
from crpencils.partitions import family_sizes, gl_dim, hook_family_rank
from crpencils.pencils import (
    BuildSpec,
    Pencil,
    _coordinate_action,
    _sl_ad,
    _wedge_action,
    build_adjoint_pencil,
    build_gl_pencil,
    build_koszul_pencil,
    build_so_pencil,
    build_sp_pencil,
    build_spin_pencil,
    check_equivariance,
    equivariance_data,
    hyperplane_bound_criterion,
    sl_basis,
    spin_kernel_vector,
    theta_map,
    word_terms,
)
from crpencils.tensors import chevalley_generators, letter_images, perm_sign, square_matrix

from word_oracles import (
    EchelonOracle,
    basis_tensors,
    derivation,
    form_lie_basis,
    modp_matmul,
    pivot_words,
    reduce_mod,
    theta_fractions,
    torus_oracle,
)


def _rank_at(pencil, x):
    return qq_rank(pencil.evaluate(list(x)))


# the builder examples of scripts/build_examples.py
EXAMPLES = [
    {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3},
    {"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 4},
    {"kind": "gl", "mu": [2, 1], "nu": [2, 1, 1], "v": 4},
    {"kind": "koszul", "k": 2, "v": 6},
    {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6},
    {"kind": "so", "mu": [2], "nu": [2, 1], "m": 3},
    {"kind": "spin", "n": 5},
    {"kind": "adjoint", "a": 7},
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EXAMPLES), st.sampled_from([3, 5, 101, DEFAULT_PRIME]),
       st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=35, max_size=35))
def test_evaluate_modp_matches_evaluate_over_q(params, p, point):
    pen = build_from_params(params)
    assume(pen.denom % p)
    x = point[: pen.nvars]
    want = [[reduce_mod(e, p) for e in row] for row in pen.evaluate(x)]
    got = pen.evaluate_modp([xi % p for xi in x], pen.coeff_array_modp(p), p)
    assert got.tolist() == want


@pytest.mark.parametrize("params", EXAMPLES, ids=lambda r: r["kind"])
def test_every_builder_example_is_equivariant(params):
    assert check_equivariance(build_from_params(params))


# the pencils of the catalog entries past the builder examples, and of the
# benchmark's rnd workload
CATALOG_PENCILS = EXAMPLES + [
    {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 4},
    {"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 5},
    {"kind": "koszul", "k": 1, "v": 5},
    {"kind": "koszul", "k": 2, "v": 5},
    {"kind": "koszul", "k": 2, "v": 7},
    {"kind": "sp", "mu": [1], "nu": [1, 1], "N": 4},
    {"kind": "sp", "mu": [2], "nu": [2, 1], "N": 6},
    {"kind": "so", "mu": [2], "nu": [2, 1], "m": 4},
    {"kind": "so", "mu": [2], "nu": [2, 1], "m": 5},
    {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5},
    {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 6},
    {"kind": "adjoint", "a": 8},
]
TORUS_PENCILS = {**{"-".join(map(str, r.values())).replace(" ", ""): r for r in CATALOG_PENCILS},
                 **{name: name for name in FIXTURE_NAMES}}


def _torus_pencil(key):
    record = TORUS_PENCILS[key]
    return fixture_parse(record) if isinstance(record, str) else build_from_params(record)


@pytest.mark.parametrize("key", TORUS_PENCILS)
def test_every_coefficient_satisfies_the_support_torus(key):
    # y_r - z_c = w_v at every nonzero coefficient (v, r, c), for every row
    # of the basis; and the cells of one block share y_r - z_c
    pen = _torus_pencil(key)
    w, y, z, block = pen.torus
    var, row, col, _ = pen.coo
    assert (y[:, row] - z[:, col] == w[:, var]).all()
    label = (y[:, :, None] - z[:, None, :]).reshape(len(w), -1)
    first = np.zeros(block.max() + 1, dtype=np.int64)
    first[block.ravel()[::-1]] = np.arange(block.size)[::-1]  # each block's first cell
    assert (label == label[:, first[block.ravel()]]).all()
    assert sorted(set(block.ravel().tolist())) == list(range(block.max() + 1))


@pytest.mark.parametrize("key, rank", [
    ("koszul-2-7", 7 + 1), ("adjoint-8", 8 + 1), ("spin-5", 6 + 1),
    ("so-[3,1,1]-[3,2,1]-6", 4 + 1), ("sp6_wedge2", 1 + 1),
])
def test_torus_rank_is_the_dense_incidence_kernels(key, rank):
    # the variables' lattice and one free shift per connected component of
    # the row-column graph; the basis spans the dense kernel, and each of
    # its blocks lies in one block of the dense kernel's labels
    pen = _torus_pencil(key)
    w, y, z, block = pen.torus
    ker, dense = torus_oracle(pen)
    assert len(w) == len(ker) == rank
    assert qq_rank(np.concatenate([ker, np.concatenate([w, y, z], axis=1)])) == rank
    assert all(len(set(dense[block == k].tolist())) == 1 for k in range(block.max() + 1))


@given(st.sampled_from(sorted(TORUS_PENCILS)), st.sampled_from([5, 101, DEFAULT_PRIME]),
       st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_ranks_are_constant_on_torus_orbits(key, p, seed):
    # A(t^w x) = D_y(t) A(x) D_z(t)^-1, so x and t.x have the same rank
    pen = _torus_pencil(key)
    assume(pen.denom % p)
    rng = random.Random(seed)
    points, w = random_points(rng, 4, pen.nvars, p).tolist(), pen.torus[0].tolist()
    moved = []
    for x in points:
        t = [rng.randrange(1, p) for _ in w]
        moved.append([xv * prod(pow(ti, row[v], p) for ti, row in zip(t, w)) % p
                      for v, xv in enumerate(x)])
    assert ranks_at(pen, points, p) == ranks_at(pen, moved, p)


@pytest.mark.parametrize("params", EXAMPLES, ids=lambda r: r["kind"])
def test_build_spec_record_round_trip(params):
    spec = build_from_params(params).spec
    assert spec.record() == params
    assert BuildSpec.from_record(spec.record()) == spec
    assert build_from_params(spec.record()).spec == spec


@pytest.mark.parametrize("params", EXAMPLES, ids=lambda r: r["kind"])
def test_build_spec_dims_are_the_built_dims(params):
    pen = build_from_params(params)
    assert pen.spec.shape() == (pen.nvars, pen.source_dim, pen.target_dim)
    assert loads_pencil(dumps_pencil(pen, pen.spec.record()))[0].spec == pen.spec


_REALIZE = {"gl": schur_module, "sp": symplectic_module, "so": orthogonal_module}


@pytest.mark.parametrize("kind, lam, n", [
    *[(r["kind"], tuple(lam), r.get("v", r.get("N", r.get("m"))))
      for r in EXAMPLES if r["kind"] in _REALIZE for lam in (r["mu"], r["nu"])],
    *[("gl", (k,), 2) for k in range(15)],
])
def test_word_price_bounds_the_terms_the_symmetrizer_forms(monkeypatch, kind, lam, n):
    # every batch a row or column pass of apply_symmetrizer takes or returns,
    # realizing the module afresh; on one row of k >= 2 boxes at n = 2 (fewer
    # run no pass) the price, 2^k, is exact
    terms = [0]
    permutation_pass = tensors._permutation_pass

    def counted(b, slots, signed):
        out = permutation_pass(b, slots, signed)
        terms.append(max(b.code.size, out.code.size))
        return out

    monkeypatch.setattr(tensors, "_permutation_pass", counted)
    _REALIZE[kind].__wrapped__(lam, n)
    assert max(terms) <= word_terms(lam, n)
    if len(lam) == 1 and n == 2 and lam[0] >= 2:
        assert max(terms) == word_terms(lam, n) == 2 ** lam[0]


def test_build_spec_rejects_malformed_records():
    for record in ({"kind": "gl", "mu": [2], "nu": [2, 1]},
                   {"kind": "gl", "mu": "2", "nu": [2, 1], "v": 3},
                   {"kind": "gl", "mu": [1, 2], "nu": [2, 1], "v": 3},
                   {"kind": "gl", "mu": [1, -1], "nu": [2, -1], "v": 2},
                   {"kind": "koszul", "k": True, "v": 3},
                   {"kind": "adjoint", "a": -4},
                   {"kind": "spin", "n": "5"},
                   {"kind": "sl", "a": 3}, ["gl"], None):
        with pytest.raises(ValueError):
            BuildSpec.from_record(record)


def test_equivariance_needs_a_spec_that_fits():
    koszul = build_koszul_pencil(1, 3)
    assert check_equivariance(koszul)
    assert not check_equivariance(replace(koszul, spec=None))
    # GL(3) acting on S_2 -> S_21 (6 -> 8) does not fit the 3 -> 3 pencil
    assert not check_equivariance(replace(koszul, spec=build_gl_pencil((2,), (2, 1), 3).spec))


# -- the equivariance certificate on integers --------------------------------


def _dense(action: Pencil) -> list[list[list[Fraction]]]:
    """Each generator's matrix of an action, in Fractions."""
    return [[[Fraction(x, action.denom) for x in row] for row in action.evaluate(e).tolist()]
            for e in np.eye(action.nvars, dtype=np.int64).tolist()]


def _fraction_coordinate_action(mod, X) -> list[list[Fraction]]:
    """The coordinate action as Fractions, by the former path: the
    derivation action of X on each RREF basis tensor, word by word, with its
    coordinates read at the pivot words and the residual checked in
    Fractions."""
    X = [[Fraction(x) for x in row] for row in X]
    pivots, basis = pivot_words(mod.span), basis_tensors(mod.span)
    cols = []
    for t in basis:
        y = derivation(X, t)
        col = [y.get(w, Fraction(0)) for w in pivots]
        resid = dict(y)
        for c, b in zip(col, basis):
            for w, x in b.items():
                resid[w] = resid.get(w, 0) - c * x
        assert not any(resid.values()), "module basis is not stable under the Lie action"
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _example_modules():
    """(id, module, generators) for both modules of every builder example
    that has realized modules: the generators equivariance_data uses, with
    the GL torus or the full basis of the form's Lie algebra."""
    out = []
    for params in EXAMPLES:
        spec = BuildSpec.from_record(params)
        if spec.kind not in ("gl", "sp", "so"):
            continue
        mu, nu, dim = spec.args
        if spec.kind == "gl":
            mods = (schur_module(mu, dim), schur_module(nu, dim))
            gens = chevalley_generators(dim) + [square_matrix(dim, {(k, k): 1})
                                                for k in range(dim)]
        else:
            realize = symplectic_module if spec.kind == "sp" else orthogonal_module
            mods = (realize(mu, dim), realize(nu, dim))
            gens = form_lie_generators(mods[0].form) + form_lie_basis(mods[0].form)
        for mod in mods:
            out.append((f"{spec.kind}{mod.weight}-{dim}", mod, gens))
    return out


@pytest.mark.parametrize("mod,gens", [pytest.param(m, g, id=i) for i, m, g in _example_modules()])
def test_coordinate_action_matches_the_fraction_oracle(mod, gens):
    got = _coordinate_action(mod, gens)
    assert _dense(got) == [_fraction_coordinate_action(mod, X) for X in gens]
    # the dual action -rho^T of the form modules' target coordinates
    assert _dense(_coordinate_action(mod, gens, dual=True)) == [
        [[-x for x in row] for row in zip(*m)] for m in _dense(got)]


def wedge_action_by_rearrangement(X, basis):
    """The derivation action of X on Lambda^k by replacing each letter a of
    e_K with each letter b of X e_a and sorting with an explicit permutation
    sign.  Kept here as the oracle of the action through contraction and
    wedge."""
    images = letter_images(X)
    cols = []
    for K in basis:
        col = {}
        for s, a in enumerate(K):
            for b, x in images.get(a, ()):
                if b == a or b not in K:
                    rearr = K[:s] + (b,) + K[s + 1 :]
                    key = tuple(sorted(rearr))
                    col[key] = col.get(key, 0) + x * perm_sign(rearr)
        cols.append({K: c for K, c in col.items() if c})
    return cols


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda v: st.tuples(
    st.integers(0, min(v, 3)),
    st.lists(st.lists(st.integers(-3, 3), min_size=v, max_size=v), min_size=v, max_size=v))))
def test_wedge_action_matches_the_rearrangement_oracle(case):
    k, X = case
    basis = list(combinations(range(len(X)), k))
    assert _wedge_action(X, basis) == wedge_action_by_rearrangement(X, basis)


def test_wedge_action_on_the_adjoint_cube_matches_the_oracle():
    basis3 = list(combinations(range(7), 3))
    for X in sl_basis(7):
        assert _wedge_action(X, basis3) == wedge_action_by_rearrangement(X, basis3)


def ad_by_dense_commutator(Y, a):
    """ad_Y on sl_a in sl_basis coordinates: each [Y, X] as a dense
    integer matrix, read back through the coordinates of a traceless
    matrix (off-diagonal entries, then d_k = sum_{l<=k} m_ll on H_k)."""
    def coords(m):
        assert sum(m[i][i] for i in range(a)) == 0
        return ([m[i][j] for i in range(a) for j in range(a) if i != j]
                + list(accumulate(m[k][k] for k in range(a - 1))))

    return [list(row) for row in zip(*(
        coords([[sum(Y[i][k] * X[k][j] - X[i][k] * Y[k][j] for k in range(a))
                 for j in range(a)] for i in range(a)])
        for X in sl_basis(a)))]


@pytest.mark.parametrize("a", range(2, 9))
def test_sl_ad_matches_the_dense_commutator(a):
    gens = chevalley_generators(a) + (sl_basis(a) if a <= 5 else [])
    for Y in gens:
        got = _sl_ad(Y, a)
        assert got.dtype == np.int64 and got.tolist() == ad_by_dense_commutator(Y, a)


def test_pencil_from_entries_clears_denominators_and_content():
    spec = BuildSpec("koszul", (0, 2))
    # (var, row, col, num) arrays, in any order; equal cells are summed
    pen = Pencil.from_entries(([1, 0, 1, 1], [1, 0, 0, 1], [0, 0, 0, 0], [1, 2, 0, 3]),
                              3, 2, 1, 2, spec)
    assert (pen.coeffs, pen.denom) == (((0, 0, 0, 1), (1, 1, 0, 2)), 3)
    assert all(type(x) is int for e in pen.coeffs for x in e)
    assert pen.var_labels == ("x_1", "x_2") and pen.spec == spec
    # the same values over a common denominator that is not the least one
    twice = Pencil.from_entries(([0, 1, 1], [0, 1, 0], [0, 0, 0], [4, 8, 0]), 6, 2, 1, 2, spec)
    assert (twice.coeffs, twice.denom) == (pen.coeffs, pen.denom)
    assert Pencil.from_entries(([0], [0], [0], [1]), 1, 1, 1, 1, spec, ("y",)).var_labels == ("y",)
    with pytest.raises(AssertionError, match="koszul pencil is identically zero"):
        Pencil.from_entries(([0, 0], [0, 0], [0, 0], [1, -1]), 1, 1, 1, 1, spec)


def test_form_lie_bases_are_integral():
    for form in (orthogonal_form(4), orthogonal_form(5), symplectic_form(6)):
        assert all(type(x) is int for X in form_lie_generators(form) for row in X for x in row)


def test_coordinate_action_refuses_a_generator_that_leaves_the_span():
    # E_{0,2} does not preserve the symplectic form, and it moves the
    # form-traceless part of Lambda^2 off itself
    mod = symplectic_module((1, 1), 6)
    X = square_matrix(6, {(0, 2): 1})
    assert mod.span.coordinates(lie_action([X], mod.span.scaled_batch))[3].any()
    with pytest.raises(AssertionError, match="not stable"):
        _coordinate_action(mod, [X])


def _lie_closure_dim(action: Pencil, p: int = DEFAULT_PRIME) -> int:
    """dim over F_p of the Lie algebra the generators' matrices generate, by
    adding [g, y] for every generator g and every y found so far until
    nothing new appears.  It bounds the dimension over Q from below."""
    ech = EchelonOracle(action.source_dim ** 2, p)
    # den times each generator, which generates the same dimension
    mats = [(action.evaluate(e) % p).astype(np.int64)
            for e in np.eye(action.nvars, dtype=np.int64).tolist()]

    def new(ms):
        return [ms[i] for i in ech.add([m.reshape(-1) for m in ms])]

    queue = new(mats)
    while queue:
        y = queue.pop()
        queue += new([(modp_matmul(g, y, p) - modp_matmul(y, g, p)) % p for g in mats])
    return len(ech.pivots)


@pytest.mark.parametrize("kind,v", [(kind, v) for kind in ("gl", "koszul")
                                    for v in range(2, 6)] + [("adjoint", 7)])
def test_checked_generators_generate_sl(kind, v):
    # gl and koszul act on the variables by X itself, the adjoint pencil on
    # its source by ad X; ad is faithful on sl_a, so both closures have
    # dimension v^2 - 1 exactly when the X generate sl_v
    spec = {"gl": BuildSpec("gl", ((1,), (2,), v)), "koszul": BuildSpec("koszul", (1, v)),
            "adjoint": BuildSpec("adjoint", (v,))}[kind]
    x_on_vars, rho_source, _ = equivariance_data(spec)
    gens = rho_source if kind == "adjoint" else x_on_vars
    assert gens.nvars == 2 * (v - 1)
    assert _lie_closure_dim(gens) == v * v - 1


# (kind, natural dimension) of every Sp, SO and spin group that a builder
# example, catalog entry, benchmark job or CI step uses, with so_2 (abelian)
# and so_7 (type B, like so_3 and so_5) as edge cases
FORM_GROUPS = [("sp", 4), ("sp", 6), ("sp", 8), *(("so", m) for m in range(2, 8)), ("spin", 10)]


@pytest.mark.parametrize("kind,d", FORM_GROUPS, ids=lambda x: str(x))
def test_form_and_spin_generators_generate_their_lie_algebra(kind, d):
    # 2 rank(g) generators (so_2 keeps its one), each in g: for sp and so it
    # preserves the form, and spin's act through so(2n) by construction.
    # The variables carry a faithful action (the natural representation,
    # Delta+ for spin), so a bracket closure of dimension dim g means that
    # they generate g
    spec = BuildSpec("spin", (d // 2,)) if kind == "spin" else BuildSpec(kind, ((), (1,), d))
    gens = equivariance_data(spec)[0]
    assert gens.nvars == (1 if d == 2 else 2 * (d // 2))
    assert _lie_closure_dim(gens) == (d * (d + 1) // 2 if kind == "sp" else d * (d - 1) // 2)
    if kind != "spin":
        gram = np.array((symplectic_form if kind == "sp" else orthogonal_form)(d).gram)
        for m in _dense(gens):
            x = np.array(m, dtype=np.int64)
            assert not (x.T @ gram + gram @ x).any()


def _scaled_var0(pen, factor=2):
    return replace(pen, coeffs=tuple((var, r, c, factor * num if var == 0 else num)
                                     for var, r, c, num in pen.coeffs))


@pytest.mark.parametrize("pen", [build_gl_pencil((2,), (2, 1), 3), build_koszul_pencil(1, 3),
                                 build_sp_pencil((1, 1), (1, 1, 1), 6)],
                         ids=["gl-2-21-3", "koszul-1-3", "sp-11-111-6"])
def test_doubling_one_variable_breaks_sl_equivariance(pen):
    # A_0 -> 2 A_0 keeps every torus weight, so diagonal generators alone
    # would still pass; the root vectors must not
    assert check_equivariance(pen)
    assert not check_equivariance(_scaled_var0(pen))


@pytest.mark.parametrize("record", [
    {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6},
    {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5},
    {"kind": "spin", "n": 5},
], ids=lambda r: r["kind"])
def test_one_changed_coefficient_fails_the_generating_set(record):
    # doubling one coefficient keeps its place, and so every torus weight
    pen = build_from_params(record)
    assert check_equivariance(pen)
    for at in (0, len(pen.coeffs) // 2, len(pen.coeffs) - 1):
        var, r, c, num = pen.coeffs[at]
        coeffs = pen.coeffs[:at] + ((var, r, c, 2 * num),) + pen.coeffs[at + 1:]
        assert not check_equivariance(replace(pen, coeffs=coeffs))


def _plus_one(action: Pencil, g: int, r: int, c: int) -> Pencil:
    """The action with 1 added to entry (r, c) of generator g's matrix."""
    g_, r_, c_, num = (x.tolist() for x in action.coo)
    return pencils._action((g_ + [g], r_ + [r], c_ + [c], num + [action.denom]),
                           action.nvars, action.source_dim, action.denom)


@pytest.mark.parametrize("record", [
    {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6},
    {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5},
    {"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3},
    {"kind": "spin", "n": 5},
], ids=lambda r: r["kind"])
def test_every_generator_and_every_variable_is_checked(monkeypatch, record):
    # a changed coefficient breaks the identity under several generators and
    # for several variables at once; these data break it once each.  Adding
    # E_cc to one generator's rho_source changes A_i rho_s by column c of
    # A_i, and adding E_ii to the first generator's x_on_vars changes the
    # sum for variable i alone, by A_i
    pen = build_from_params(record)
    x_on_vars, rho_source, rho_target = equivariance_data(pen.spec)
    col = pen.coeffs[0][2]
    broken = [(x_on_vars, _plus_one(rho_source, g, col, col), rho_target)
              for g in range(rho_source.nvars)]
    broken += [(_plus_one(x_on_vars, 0, i, i), rho_source, rho_target)
               for i in range(pen.nvars)]
    assert check_equivariance(pen)
    for bad in broken:
        monkeypatch.setattr(pencils, "equivariance_data", lambda spec: bad)
        assert not check_equivariance(pen)


def test_a_coefficient_past_int64_is_checked_exactly():
    # 2^64 more than a coefficient: a cast to int64 would wrap it back
    pen = build_gl_pencil((2,), (2, 1), 3)
    var, r, c, num = pen.coeffs[0]
    assert check_equivariance(pen)
    assert not check_equivariance(replace(pen, coeffs=((var, r, c, num + (1 << 64)),)
                                          + pen.coeffs[1:]))


def test_cached_actions_and_theta_sides_are_read_only():
    # equivariance_data and _theta_sides are cached: every caller shares them
    for action in equivariance_data(build_gl_pencil((2,), (2, 1), 3).spec):
        for x in action.coo:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 7
    a_side, _, b_side, *_ = pencils._theta_sides((2,), (1,), (1,), (1, 1), 2, 2)
    for x in a_side + b_side:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 7


def test_one_variable_gl_and_koszul_still_certify():
    for pen in (build_gl_pencil((), (1,), 1), build_gl_pencil((2,), (3,), 1),
                build_koszul_pencil(0, 1)):
        assert pen.nvars == 1
        x_on_vars = equivariance_data(pen.spec)[0]
        assert (x_on_vars.nvars, x_on_vars.coeffs, x_on_vars.denom) == (1, ((0, 0, 0, 1),), 1)
        assert check_equivariance(pen)
        rep = constant_rank_verdict(pen, "transitivity")
        assert (rep.verdict, rep.generic_rank) == ("constant", 1)


# -- GL ---------------------------------------------------------------------


def test_gl_sym2_shape_and_rank():
    pen = build_gl_pencil((2,), (2, 1), 3)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (3, 6, 8)
    assert _rank_at(pen, [1, 1, 1]) == 5
    assert _rank_at(pen, [1, 0, 0]) == 5


def test_gl_family_sizes_closed_forms():
    for n in range(2, 6):
        a, b, r = family_sizes("GL_2_21", n=n)
        assert a == (n + 2) * (n + 1) // 2
        assert b == n * (n + 1) * (n + 2) // 3
        assert r == (n * n + 3 * n) // 2
        pen = build_gl_pencil((2,), (2, 1), n + 1)
        assert (pen.source_dim, pen.target_dim) == (a, b)


def test_gl_pencil_equivariance_exact():
    assert check_equivariance(build_gl_pencil((2,), (2, 1), 3))
    assert check_equivariance(build_gl_pencil((2, 2), (2, 2, 1), 4))


def test_gl_coefficients_are_primitive_integers():
    # cleared coefficients carry no common integer factor, so reduction
    # modulo any prime not dividing the recorded denominator is faithful
    for pen in (build_gl_pencil((2,), (2, 1), 3),
                build_sp_pencil((1, 1), (1, 1, 1), 6),
                build_spin_pencil(5)):
        assert gcd(*(num for *_, num in pen.coeffs)) == 1
        assert all(num for *_, num in pen.coeffs)
        assert pen.denom >= 1


def test_hook_family_anchor():
    pen = build_gl_pencil((2, 1), (2, 1, 1), 4)
    assert (pen.target_dim, pen.source_dim) == (15, 20)
    assert hook_family_rank(3, 1) == 11
    assert generic_rank(pen, trials=5, seed=0) == 11


def test_hook_family_rank_formula_values():
    # closed form C(n, b+1) + C(n, b) (n-b)(n+1)/(b+2)
    assert hook_family_rank(2, 0) == 5
    assert hook_family_rank(3, 0) == 9
    assert hook_family_rank(4, 1) == 26
    for n in range(2, 6):
        for b in range(0, min(2, n - 1) + 1):
            val = comb(n, b + 1) + comb(n, b) * (n - b) * (n + 1) // (b + 2)
            assert hook_family_rank(n, b) == val


# -- Koszul -----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]),
       st.lists(st.integers(-7, 7), min_size=5, max_size=5))
def test_koszul_rank_at_any_nonzero_point(kv, point):
    k, v = kv
    x = point[:v]
    if not any(x):
        x[0] = 1
    pen = build_koszul_pencil(k, v)
    assert _rank_at(pen, x) == comb(v - 1, k)


def test_koszul_shapes():
    pen = build_koszul_pencil(2, 6)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (6, 15, 20)


# -- Sp ---------------------------------------------------------------------


def test_sp6_pencil_shape_and_rank():
    pen = build_sp_pencil((1, 1), (1, 1, 1), 6)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (6, 14, 14)
    assert _rank_at(pen, [1, 0, 0, 0, 0, 0]) == 9
    assert _rank_at(pen, [1, 2, 3, 4, 5, 6]) == 9
    assert check_equivariance(pen)


# -- SO ---------------------------------------------------------------------


def test_so_sym2_shape_and_rank():
    pen = build_so_pencil((2,), (2, 1), 3)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (3, 5, 5)
    assert _rank_at(pen, [1, 1, 1]) == 4
    assert check_equivariance(pen)


def test_so_family_sizes_closed_forms():
    for m in (3, 4, 5):
        a, b, r = family_sizes("SO_2_21", m=m)
        assert a == (m * m + m - 2) // 2
        assert b == (m ** 3 - 4 * m) // 3
        assert r == (m * m + m - 4) // 2


# -- Spin -------------------------------------------------------------------


def test_spin_pencil_shape_and_ranks():
    pen = build_spin_pencil(5)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (16, 10, 16)
    assert _rank_at(pen, [1] + [0] * 15) == 5  # at the highest weight spinor
    assert _rank_at(pen, list(range(1, 17))) == 9


def test_spin_kernel_vector_annihilated_exactly():
    pen = build_spin_pencil(5)
    basis = spin_space(5).even_basis
    import random

    rng = random.Random(7)
    for _ in range(20):
        delta = {I: rng.randint(-5, 5) for I in basis}
        kv = spin_kernel_vector(delta)
        mat = pen.evaluate([delta[I] for I in basis])
        assert all(
            sum((row[j] * kv[j] for j in range(10)), Fraction(0)) == 0
            for row in mat
        )
        # proportional to the degree-two gamma pairing of delta with itself
        assert [4 * c for c in kv] == a_vector(delta, 5)


def test_gamma_pairing_degree_one_is_vector_valued():
    basis = spin_space(5).even_basis
    delta = {I: 1 for I in basis}
    comp = gamma_pairing(delta, delta, 5)
    assert all(j in range(10) for j in comp)


# -- adjoint / induced operator --------------------------------------------


def test_adjoint_a7_shape_and_rank():
    pen = build_adjoint_pencil(7)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (35, 48, 35)
    assert generic_rank(pen, trials=5, seed=0) == 34


def test_theta_map_small_anchors():
    # r = 0: zero map
    rows, _ = theta_map([[0, 0], [0, 0]], (2,), (1,), (1,), (1, 1))
    assert rows.tolist() == [[0] * 6, [0] * 6]
    X = [[1, 0], [0, 1]]
    mat, _ = theta_map(X, (2,), (1,), (1,), (1, 1))
    assert qq_rank(mat) == 2


@pytest.mark.parametrize("X, lam, lam_p, mu, mu_p", [
    ([[1, 2], [3, 4]], (2,), (1,), (1,), (1, 1)),
    ([[3, -1, 0], [2, 0, 5]], (2, 1), (1, 1), (1,), (2,)),
    ([[1, 0, 2], [0, -3, 1], [1, 1, 0]], (2, 1), (2,), (1, 1), (2, 1)),
    ([[0, 1, 0, 2], [1, 0, 0, 0], [0, 0, 5, 0]], (1, 1), (1,), (2,), (2, 1)),
    ([[2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, -7], [0, 0, 1, 1]],
     (2, 1, 1), (1, 1, 1), (1,), (1, 1)),
])
def test_theta_map_matches_the_fraction_loop(X, lam, lam_p, mu, mu_p):
    rows, den = theta_map(X, lam, lam_p, mu, mu_p)
    assert all(type(x) is int for row in rows.tolist() for x in row)
    assert ([[Fraction(x, den) for x in row] for row in rows.tolist()]
            == theta_fractions(X, lam, lam_p, mu, mu_p))


def test_hyperplane_criterion_anchor():
    assert hyperplane_bound_criterion((3, 2), (3, 2, 1, 1), 2) == (True, 40)
    assert gl_dim((3, 2), 5) == 175
    assert gl_dim((3, 2, 1, 1), 5) == 175


def test_hyperplane_criterion_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hyperplane_bound_criterion((1, 2), (2, 1), 2)
