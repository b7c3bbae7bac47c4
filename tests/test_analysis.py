"""Rank measurement, verdicts, predictions, neutral directions, flattening."""

import hashlib
import random
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crpencils.analysis import (
    RndReport,
    constant_rank_verdict,
    flattening_rank_of_tensor,
    generic_rank,
    koszul_flattening_rank,
    predict_gl_decomposition,
    predict_so_nonisotropic,
    projective_blocks,
    random_points,
    ranks_at,
    rnd,
    structured_points,
    theta_rank_formula,
)
from crpencils import analysis, linalg
from crpencils.catalog import build_from_params, fixture_parse
from crpencils.linalg import (
    DEFAULT_PRIME,
    Subspace,
    modp_rank,
    modp_rref,
    qq_rank,
)
from crpencils.modules import orthogonal_form
from crpencils.partitions import gl_dim, pieri_add
from crpencils.pencils import (
    Pencil,
    build_gl_pencil,
    build_koszul_pencil,
    build_so_pencil,
    build_sp_pencil,
    build_spin_pencil,
)
from word_oracles import (
    EchelonOracle,
    kernel_rows,
    mat_mod,
    modp_row_reduce,
    modp_rref_kernel,
    randrange_points,
    sampled_verdict_one_list,
    torus_oracle,
)


def test_generic_rank_koszul_anchor():
    assert generic_rank(build_koszul_pencil(1, 4), trials=5, seed=0) == 3


def test_generic_rank_is_deterministic_given_seed():
    pen = build_gl_pencil((2,), (2, 1), 4)
    a = generic_rank(pen, trials=10, seed=3)
    b = generic_rank(pen, trials=10, seed=3)
    assert a == b


# -- constant_rank_verdict ---------------------------------------------------


def test_exhaustive_gl_over_f5():
    rep = constant_rank_verdict(build_gl_pencil((2,), (2, 1), 3),
                                "exhaustive", prime=5)
    assert (rep.verdict, rep.generic_rank) == ("constant", 5)
    # all 31 points of P^2(F_5) were visited, one witness per rank value
    assert rep.method["points"] == 31
    assert [r for r, _, _ in rep.strata] == [5]


def _reference_projective_points(s, p):
    """The earlier one-point-at-a-time enumeration of P^{s-1}(F_p)."""
    for lead in range(s):
        tail = s - lead - 1
        idx = [0] * tail
        while True:
            yield tuple([0] * lead + [1] + idx)
            k = tail - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < p:
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                break


@pytest.mark.parametrize("s,p", [(3, 3), (4, 5), (6, 5)])
def test_projective_blocks_keep_the_enumeration_order(s, p):
    for block in (1, 7, 4096):
        got = [tuple(row) for b in projective_blocks(s, p, block) for row in b.tolist()]
        assert got == list(_reference_projective_points(s, p))
        assert all(len(b) <= block for b in projective_blocks(s, p, block))


def test_ranks_at_matches_per_point_rank():
    pen = build_so_pencil((2,), (2, 1), 4)
    rng = random.Random(1)
    points = [[rng.randrange(DEFAULT_PRIME) for _ in range(4)] for _ in range(40)]
    points += [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    stacked = pen.coeff_array_modp(DEFAULT_PRIME)
    want = [len(modp_rref(pen.evaluate_modp(x, stacked, DEFAULT_PRIME), DEFAULT_PRIME)[1])
            for x in points]
    assert ranks_at(pen, points, DEFAULT_PRIME) == want
    assert ranks_at(pen, np.zeros((0, 4), dtype=np.int64), DEFAULT_PRIME) == []


@st.composite
def _raw_pencils(draw):
    """(p, a Pencil built directly, points in [0, p)): numerators small,
    near p/2 or above 2^40, which forces the limb split at DEFAULT_PRIME.
    7/11 and 127/131 sit on either side of each switch of
    linalg.stack_dtype, and 32749/32771 on either side of an int64 stack
    reduced every third step or every second; past four variables the
    products at 127 leave int16 before they are reduced."""
    p = draw(st.sampled_from((5, 7, 11, 127, 131, 32749, 32771, DEFAULT_PRIME)))
    s, c, b = (draw(st.integers(1, k)) for k in (6, 7, 7))
    num = st.one_of(st.integers(-3, 3), st.integers(p // 2 - 2, p // 2 + 2),
                    st.integers(2 ** 40, 2 ** 42), st.integers(-2 ** 42, -2 ** 40))
    cells = st.tuples(st.integers(0, s - 1), st.integers(0, c - 1), st.integers(0, b - 1))
    entries = draw(st.dictionaries(cells, num, max_size=s * c * b))
    coeffs = tuple(sorted(k + (x,) for k, x in entries.items() if x))
    pencil = Pencil(s, b, c, coeffs, 1, tuple(f"x{i}" for i in range(s)))
    points = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=s, max_size=s),
                           min_size=1, max_size=12))
    return p, pencil, points


@given(_raw_pencils(), st.sampled_from((analysis.STACK_BYTES, 800, 128, 1)),
       st.sampled_from((linalg.ECHELON_CELLS, 16, 0)))
@settings(max_examples=150, deadline=None)
def test_batched_ranks_match_per_point_ranks(case, stack_bytes, echelon_cells):
    # the two bounds vary apart: stack_bytes 128 or 1 with the default
    # echelon bound gives many tiny stacks (one matrix each above the
    # budget; 128 bytes are 16 int64 cells and 128 int8 ones),
    # echelon_cells 0 sends every matrix to the echelon whatever the stack
    # budget, and 16 only those above 16 cells
    p, pencil, points = case
    want = [len(modp_rref(mat_mod(pencil.evaluate(x), p), p)[1]) for x in points]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "STACK_BYTES", stack_bytes)
        mp.setattr(linalg, "ECHELON_CELLS", echelon_cells)
        assert ranks_at(pencil, points, p) == want


def _diagonal_pencil(c: int, b: int) -> Pencil:
    """x0 on the diagonal and x1 just above it: a c x b matrix of rank
    min(c, b) wherever x0 or x1 is nonzero."""
    coeffs = [(0, i, i, 1) for i in range(min(c, b))]
    coeffs += [(1, i, i + 1, 1) for i in range(min(c, b - 1))]
    return Pencil(2, b, c, tuple(sorted(coeffs)), 1, ("x0", "x1"))


@pytest.mark.parametrize("shape, stacks, echelons", [
    ((50, 200), 1, 0),  # 10,000 cells: at the bound, the three points in one stack
    ((50, 201), 0, 3),  # above it: each matrix alone through _rref
])
def test_the_single_matrix_bound_routes_to_the_echelon(monkeypatch, shape, stacks, echelons):
    # three int64 matrices of ECHELON_CELLS cells fit one stack
    assert linalg.ECHELON_CELLS == 10_000 and 3 * 10_000 * 8 <= analysis.STACK_BYTES
    pencil = _diagonal_pencil(*shape)
    points = [[1, 0], [0, 1], [3, 5]]
    forward_shapes, echelon_rows = [], []
    forward, rref = linalg._forward, linalg._rref

    def counting_rref(a, p):
        echelon_rows.append(len(a))
        return rref(a, p)

    def counting_forward(a, p, keep_rows, scratch=None):
        forward_shapes.append(a.shape)
        return forward(a, p, keep_rows, scratch)

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    monkeypatch.setattr(linalg, "_forward", counting_forward)
    assert ranks_at(pencil, points, DEFAULT_PRIME) == [min(shape)] * 3
    assert (len(forward_shapes), len(echelon_rows)) == (stacks, echelons)
    if stacks:  # ranked on the side with fewer columns
        assert forward_shapes == [(shape[0], shape[1], 3)]
    # modp_rank of one such matrix takes the same route: one stack or one _rref
    forward_shapes.clear()
    echelon_rows.clear()
    assert modp_rank(np.eye(*shape, dtype=np.int64), DEFAULT_PRIME) == min(shape)
    assert (len(forward_shapes), len(echelon_rows)) == (stacks, 1 - stacks)
    if stacks:
        assert forward_shapes == [(shape[0], shape[1], 1)]
    # the kernels of rnd take the stacked loop on both sides of the bound:
    # A and its transpose apart, one stack each
    forward_shapes.clear()
    echelon_rows.clear()
    kernels = list(analysis._kernels(pencil, points, DEFAULT_PRIME,
                                     pencil.coeff_array_modp(DEFAULT_PRIME)))
    assert [(len(k), len(c)) for k, c in kernels] == [(shape[1] - shape[0], 0)] * 3
    assert (len(forward_shapes), len(echelon_rows)) == (2, 0)


def test_kernels_above_the_single_matrix_bound_match_the_echelon():
    # the Koszul pencil L^3 -> L^4 of C^9 is 126x84 = 10,584 cells, above
    # linalg.ECHELON_CELLS; its kernels still come from the stacked loop
    pencil = build_koszul_pencil(3, 9)
    assert pencil.target_dim * pencil.source_dim > linalg.ECHELON_CELLS
    rng = random.Random(5)
    for p in (3, DEFAULT_PRIME):
        points = [[0] * 8 + [1]] + random_points(rng, 3, 9, p).tolist()
        got = analysis._kernels(pencil, points, p, pencil.coeff_array_modp(p))
        for x, (ker, coker) in zip(points, got, strict=True):
            a = mat_mod(pencil.evaluate(x), p)
            for mine, m in ((ker, a), (coker, a.T)):
                ech = EchelonOracle(m.shape[1], p)
                ech.add(m)
                assert mine.tolist() == ech.kernel().tolist()


@given(_raw_pencils(), st.sampled_from((analysis.STACK_BYTES, 800, 1)),
       st.sampled_from((linalg.ECHELON_CELLS, 16)))
@settings(max_examples=100, deadline=None)
def test_stacked_kernels_match_per_point_kernels(case, stack_bytes, echelon_cells):
    # each stack is eliminated from evaluate_modp's layout, A and A^T, in
    # every stack dtype and on both sides of the stacked loop's orientation
    p, pencil, points = case
    want = []
    for x in points:
        a = mat_mod(pencil.evaluate(x), p)
        want.append((kernel_rows(a[None], p)[0].tolist(), kernel_rows(a.T[None], p)[0].tolist()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "STACK_BYTES", stack_bytes)
        mp.setattr(linalg, "ECHELON_CELLS", echelon_cells)
        got = list(analysis._kernels(pencil, points, p, pencil.coeff_array_modp(p)))
    assert [(k.tolist(), c.tolist()) for k, c in got] == want


@pytest.mark.parametrize("params, prime, count, per_cell", [
    # int8 stack and a 1 MB float64 scratch, which stack_product fills a
    # block of rows at a time and _forward reuses: 2.5 bytes a cell; 10.7
    # when the stack held 668 matrices and _forward had its own scratch
    ({"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}, 7, 5349, 3),
    # the same at int64, the scratch the stack's size: 17.2 bytes a cell;
    # 25.0 with _forward's own scratch
    ({"kind": "adjoint", "a": 8}, DEFAULT_PRIME, 37, 20),
])
def test_ranks_at_holds_one_stack_of_buffers(params, prime, count, per_cell):
    pencil = build_from_params(params)
    cells = count * pencil.target_dim * pencil.source_dim
    size = np.dtype(linalg.stack_dtype(prime)).itemsize
    assert cells * size <= analysis.STACK_BYTES < (
        cells + pencil.target_dim * pencil.source_dim) * size
    points = random_points(random.Random(1), count, pencil.nvars, prime)
    stacked = pencil.coeff_array_modp(prime)
    tracemalloc.start()
    try:
        ranks = ranks_at(pencil, points, prime, stacked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranks) == count
    assert peak < per_cell * cells, peak / cells


@pytest.mark.parametrize("prime", [9, 15, 1, 46337 * 46327])
def test_entry_points_reject_non_primes(prime):
    pen = build_gl_pencil((2,), (2, 1), 3)
    for call in (lambda: constant_rank_verdict(pen, "sampled", prime=prime, trials=3),
                 lambda: constant_rank_verdict(pen, "exhaustive", prime=prime),
                 lambda: generic_rank(pen, prime),
                 lambda: rnd(pen, prime),
                 lambda: ranks_at(pen, [[1, 0, 0]], prime)):
        with pytest.raises(ValueError):
            call()


def test_exhaustive_budget_guard():
    with pytest.raises(ValueError):
        constant_rank_verdict(build_gl_pencil((2,), (2, 1), 3),
                              "exhaustive", prime=5, budget=10)


def test_transitivity_certificate_gl_and_sp():
    for pen, r in ((build_gl_pencil((2,), (2, 1), 3), 5),
                   (build_sp_pencil((1, 1), (1, 1, 1), 6), 9)):
        rep = constant_rank_verdict(pen, "transitivity")
        assert (rep.verdict, rep.generic_rank) == ("constant", r)
        assert rep.method["kind"] == "transitivity"


def test_transitivity_equivariance_is_exact():
    # one coefficient raised by 46337 * 46327 leaves the pencil unchanged
    # modulo either prime, but it is no longer equivariant
    pen = build_gl_pencil((2,), (2, 1), 7)
    rep = constant_rank_verdict(pen, "transitivity")
    assert (rep.generic_rank, rep.method["equivariance"]) == (27, "exact")
    var, row, col, num = pen.coeffs[0]
    bad = replace(pen, coeffs=((var, row, col, num + 46337 * 46327),) + pen.coeffs[1:])
    with pytest.raises(ValueError, match="equivariance certificate failed"):
        constant_rank_verdict(bad, "transitivity")


def test_transitivity_rejected_off_transitive_base():
    for pen in (build_so_pencil((2,), (2, 1), 3), build_spin_pencil(5)):
        with pytest.raises(ValueError):
            constant_rank_verdict(pen, "transitivity")


def test_sampled_never_claims_constant():
    rep = constant_rank_verdict(build_gl_pencil((2,), (2, 1), 3),
                                "sampled", prime=101, trials=20, seed=0)
    assert rep.verdict != "constant"
    assert rep.generic_rank == 5
    assert {r for r, _, _ in rep.strata} == {5}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sampled_spin_strata(n):
    generic, verdict = {5: (9, "bounded"), 6: (12, "non-constant"), 7: (14, "non-constant")}[n]
    rep = constant_rank_verdict(build_spin_pencil(n), "sampled",
                                trials=30, seed=0)
    ranks_by_class = {}
    for r, _, cls in rep.strata:
        ranks_by_class.setdefault(cls, set()).add(r)
    assert ranks_by_class["generic"] == {generic}
    # W annihilates a pure spinor along a maximal isotropic subspace, of
    # dimension n: the Clifford map has rank 2n - n there
    assert ranks_by_class["pure-spinor"] == {n}
    assert rep.verdict == verdict


def test_structured_points_cover_so_orbits():
    pen = build_so_pencil((2,), (2, 1), 3)
    rng = random.Random(0)
    classes = {cls for _, cls in structured_points(pen, 13, rng, count=30)}
    assert {"coordinate", "isotropic", "non-isotropic"} <= classes


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 13])
@pytest.mark.parametrize("m", range(2, 8))
def test_structured_points_lie_in_their_class(m, prime):
    # x^T G x with G the Gram matrix itself, not FormSpec.quadratic
    gram = orthogonal_form(m).gram
    pts = structured_points(build_so_pencil((1,), (2,), m), prime, random.Random(m), count=20)
    counts = {}
    for x, cls in pts:
        q = sum(gram[i][j] * x[i] * x[j] for i in range(m) for j in range(m)) % prime
        counts[cls] = counts.get(cls, 0) + 1
        if cls == "isotropic":
            assert any(x) and q == 0, (x, q)
        elif cls == "non-isotropic":
            assert q != 0, (x, q)
    assert counts["isotropic"] == 20 and counts["non-isotropic"] > 1


# 5 and 17 reject about a third and almost half of their words
DRAW_PRIMES = (3, 5, 7, 17, 31, 101, 257, 32749, 65537, 1000003, 2147483587,
               DEFAULT_PRIME, 2147483647)


@pytest.mark.parametrize("prime", DRAW_PRIMES)
def test_bulk_draws_match_one_randrange_per_coordinate(prime):
    # the same points, and the generator left in the same state, for every
    # seed and shape, count 0 included
    for seed in range(20):
        for count, nvars in ((0, 3), (1, 1), (2, 0), (7, 3), (40, 6)):
            bulk, loop = random.Random(seed), random.Random(seed)
            got = random_points(bulk, count, nvars, prime)
            want = randrange_points(loop, count, nvars, prime)
            assert got.dtype == np.int64 and got.shape == (count, nvars)
            assert got.tolist() == want.tolist()
            assert bulk.getstate() == loop.getstate()
            # and the next draw goes on from the same word
            assert bulk.randrange(prime) == loop.randrange(prime)


def test_transitivity_ranks_a_nonzero_point():
    # at prime 3 and seed 2 the first draw is the zero point (0, 0)
    assert random_points(random.Random(2), 1, 2, 3).tolist() == [[0, 0]]
    rep = constant_rank_verdict(build_gl_pencil((1,), (2,), 2), "transitivity",
                                prime=3, seed=2)
    ((r, x, cls),) = rep.strata
    assert (rep.generic_rank, r, cls) == (2, 2, "generic") and any(x)


def test_sampled_skips_zero_draws():
    pen = build_gl_pencil((1,), (2,), 2)
    assert random_points(random.Random(2), 20, 2, 3).tolist().count([0, 0]) > 1
    rep = constant_rank_verdict(pen, "sampled", prime=3, trials=20, seed=2)
    assert rep == sampled_verdict_one_list(pen, 3, 20, 2)
    assert {r for r, _, _ in rep.strata} == {2} and all(any(x) for _, x, _ in rep.strata)


SAMPLED_PENCILS = {
    "gl": lambda: build_gl_pencil((2,), (2, 1), 3),
    "sp": lambda: build_sp_pencil((1, 1), (1, 1, 1), 6),
    "so-m4": lambda: build_so_pencil((2,), (2, 1), 4),
    "so-m5": lambda: build_so_pencil((2,), (2, 1), 5),
    "spin-n5": lambda: build_spin_pencil(5),
    "fixture-gl": lambda: fixture_parse("gl_s2_s21"),
    "fixture-sp6": lambda: fixture_parse("sp6_wedge2"),
    "fixture-spin10": lambda: fixture_parse("spin10_mdelta"),
}


def counted_ranks_at(monkeypatch) -> list[int]:
    """The number of points of each ranks_at call constant_rank_verdict makes."""
    sizes = []

    def counted(pencil, points, p, stacked=None, buffers=None):
        sizes.append(len(points))
        return ranks_at(pencil, points, p, stacked, buffers)

    monkeypatch.setattr(analysis, "ranks_at", counted)
    return sizes


@pytest.mark.parametrize("mode, prime, block", [("exhaustive", 7, 4096), ("sampled", 13, 64)])
def test_a_verdict_ranks_all_its_blocks_in_one_set_of_stack_buffers(mode, prime, block,
                                                                     monkeypatch):
    pen = build_from_params({"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6})
    want = constant_rank_verdict(pen, mode, prime=prime, trials=300)
    monkeypatch.setattr(analysis, "EXHAUSTIVE_BLOCK", block)
    sizes, allocated = counted_ranks_at(monkeypatch), []
    buffers = analysis.stack_buffers

    def counted(*args):
        allocated.append(args)
        return buffers(*args)

    monkeypatch.setattr(analysis, "stack_buffers", counted)
    assert constant_rank_verdict(pen, mode, prime=prime, trials=300) == want
    assert len(sizes) >= 5 and len(allocated) == 1


@pytest.mark.parametrize("name", SAMPLED_PENCILS)
def test_blocked_sampled_verdict_matches_the_one_list_oracle(name, monkeypatch):
    # blocks of 8 trials, so that 2 * 8 + 5 trials take three blocks
    block = 8
    monkeypatch.setattr(analysis, "EXHAUSTIVE_BLOCK", block)
    pen = SAMPLED_PENCILS[name]()
    for prime, seed, trials in [(DEFAULT_PRIME, 0, 1), (13, 1, block), (DEFAULT_PRIME, 2, 37),
                                (13, 5, 2 * block + 5), (DEFAULT_PRIME, 7, 2 * block + 5)]:
        want = sampled_verdict_one_list(pen, prime, trials, seed)
        with monkeypatch.context() as patch:
            sizes = counted_ranks_at(patch)
            got = constant_rank_verdict(pen, "sampled", prime=prime, trials=trials, seed=seed)
        assert got == want
        # the trials a block at a time, then at most one call per class
        blocks = [block] * (trials // block) + [trials % block] * (trials % block > 0)
        classes = {cls for _, cls in structured_points(pen, prime, random.Random(0))}
        assert sizes[:len(blocks)] == blocks
        assert len(sizes) <= len(blocks) + len(classes)


@pytest.mark.parametrize("name", ["gl", "fixture-gl"])
def test_sampled_verdict_ranks_its_trials_a_block_at_a_time(name, monkeypatch):
    pen = SAMPLED_PENCILS[name]()
    block = analysis.EXHAUSTIVE_BLOCK
    want = sampled_verdict_one_list(pen, DEFAULT_PRIME, 2 * block + 5, 3)
    sizes = counted_ranks_at(monkeypatch)
    assert constant_rank_verdict(pen, "sampled", trials=2 * block + 5, seed=3) == want
    assert sizes[:3] == [block, block, 5] and max(sizes) <= block


# -- predicted decompositions ------------------------------------------------


def test_predict_gl_anchors():
    p = predict_gl_decomposition((2,), (2, 1), 3)
    assert (p.kernel_dim, p.image_dim, p.cokernel_dim) == (1, 5, 3)
    p = predict_gl_decomposition((2, 2), (2, 2, 1), 4)
    assert (p.kernel_dim, p.image_dim, p.cokernel_dim) == (6, 14, 6)


def test_predict_gl_injective_iff_first_row_box():
    p = predict_gl_decomposition((2,), (3,), 3)
    assert p.kernel_dim == 0
    p = predict_gl_decomposition((2, 1), (3, 1), 4)
    assert p.kernel_dim == 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]),
    st.integers(3, 5),
    st.data(),
)
def test_predict_gl_dimension_bookkeeping(mu, v, data):
    choices = [nu for nu, _ in pieri_add(mu, v)]
    nu = data.draw(st.sampled_from(choices))
    pred = predict_gl_decomposition(mu, nu, v)
    assert pred.kernel_dim + pred.image_dim == gl_dim(mu, v)
    assert pred.image_dim + pred.cokernel_dim == gl_dim(nu, v)
    assert all(dim >= 0 for dim in
               (pred.kernel_dim, pred.image_dim, pred.cokernel_dim))


def test_predict_so_kernel_anchors():
    assert predict_so_nonisotropic((2,), (2, 1), 3).kernel_dim == 1
    assert predict_so_nonisotropic((2,), (2, 1), 7).kernel_dim == 1
    for m in (5, 6):
        k = predict_so_nonisotropic((3, 1, 1), (3, 2, 1), m).kernel_dim
        assert k == comb(m - 1, 3) + comb(m - 1, 2)


# -- rank-neutral directions -------------------------------------------------


def test_rnd_certifies_koszul():
    rep = rnd(build_koszul_pencil(1, 4), seed=0)
    assert rep.verdict == "rank-critical-certified"
    assert rep.space.dim == rep.pencil_span_dim == 4


def test_rnd_strictly_larger_for_gl_sym2():
    rep = rnd(build_gl_pencil((2,), (2, 1), 3), seed=0)
    assert rep.verdict == "strictly-larger"
    assert rep.space.dim == 18
    assert rep.space.dim == 3 + gl_dim((3, 1), 3)


@pytest.mark.parametrize("pen,digest,verdict,samples", [
    (build_koszul_pencil(2, 6),
     "fa867a454b795decacd3092ff10aad1a12ddc3c5a2fcb38d9c157759b468c442",
     "rank-critical-certified", 8),
    (build_gl_pencil((2,), (2, 1), 3),
     "7c07d02711c0ee6a028a6f7598f57fa695b9b0fed8ed7acf8681b9c9d18327f7",
     "strictly-larger", 20),
    (build_spin_pencil(5),
     "caedad1509e709fb1ba750ea1c0a62268927ba8687442556f86ed0992ce0c46a",
     "rank-critical-certified", 18),
], ids=["koszul-2-6", "gl-2-21-v3", "spin-5"])
def test_rnd_reports_are_pinned(pen, digest, verdict, samples):
    # the digests recorded from the earlier elimination, which re-eliminated
    # every constraint row in each doubling round; the sample counts from
    # the torus blocks, which stabilise a round or more sooner
    rep = rnd(pen, seed=0)
    got = hashlib.sha256(repr(rep.space.basis).encode()).hexdigest()
    assert (got, rep.verdict, rep.samples_used) == (digest, verdict, samples)


def test_rnd_contains_pencil_span():
    for pen in (build_koszul_pencil(2, 4), build_gl_pencil((2,), (2, 1), 3)):
        rep = rnd(pen, seed=1)
        assert rep.space.dim >= rep.pencil_span_dim
        assert rep.method["seed"] == 1


def _kernel(a, p):
    """The right kernel of one residue matrix, by modp_row_reduce."""
    rref, pivots, _ = modp_row_reduce(a.tolist(), p)
    kernel = modp_rref_kernel(rref, pivots, a.shape[1], p)
    return np.array(kernel, dtype=np.int64).reshape(len(kernel), a.shape[1])


def _rnd_rounds(pencil, prime, seed, max_samples, cut, space_of):
    """rnd's draws, rank filter, restart and stopping rule, one draw at a
    time: cut(state, coker, ker) adds an accepted sample's constraints to
    the state, cut(None, None, None) is a fresh one, and space_of(state)
    is their Subspace.  Returns the report, the rank of every draw in draw order,
    with whether it was accepted, and the (coker, ker) of each sample
    accepted since the last start."""
    rng = random.Random(seed)
    stacked = pencil.coeff_array_modp(prime)
    b, ambient = pencil.source_dim, pencil.target_dim * pencil.source_dim
    r = generic_rank(pencil, prime, trials=20, seed=seed, stacked=stacked)
    span = Subspace.from_vectors(stacked.reshape(pencil.nvars, ambient), ambient, prime)
    draws, top, accepted = [], r, []
    state, samples_used, target, prev_dim, stable = (
        cut(None, None, None), 0, pencil.nvars + 2, None, 0)
    while samples_used < max_samples:
        while samples_used < target:
            x = [rng.randrange(prime) for _ in range(pencil.nvars)]
            a = pencil.evaluate_modp(x, stacked, prime).astype(np.int64)
            ker = _kernel(a, prime)
            draws.append((b - len(ker), b - len(ker) >= r))
            if b - len(ker) < r:
                continue
            top = max(top, b - len(ker))
            accepted.append((_kernel(a.T, prime), ker))
            state = cut(state, *accepted[-1])
            samples_used += 1
        space = space_of(state)
        method = {"prime": prime, "seed": seed, "generic_rank": r}
        escaped = not space.contains_subspace(span)
        if escaped and top > r:
            r, accepted = top, []
            state, samples_used, target, prev_dim, stable = (
                cut(None, None, None), 0, pencil.nvars + 2, None, 0)
            continue
        target = min(max_samples, target * 2)
        if escaped:
            continue
        if space.dim == span.dim:
            return RndReport(space, "rank-critical-certified", span.dim, samples_used,
                             method), draws, accepted
        stable = stable + 1 if space.dim == prev_dim else 0
        if stable >= 2:
            return (RndReport(space, "strictly-larger", span.dim, samples_used, method),
                    draws, accepted)
        prev_dim = space.dim
    if escaped:
        raise AssertionError("pencil span escaped its own RND constraints")
    return RndReport(space, "inconclusive", span.dim, samples_used, method), draws, accepted


def rnd_one_at_a_time(pencil, prime=DEFAULT_PRIME, seed=0, max_samples=512):
    """The oracle: rnd one draw at a time, each accepted sample's formed
    constraint rows f_i u_j^T split by the blocks of torus_oracle and
    row-reduced with the block's rows so far by modp_row_reduce, w rows at
    a time for a block of w cells, until its rank is w.  The space is the
    direct sum of the block kernels."""
    c, b = pencil.target_dim, pencil.source_dim
    blocks = torus_oracle(pencil)[1].ravel()
    cells = [np.flatnonzero(blocks == k) for k in range(blocks.max() + 1)]

    def cut(kept, coker, ker):
        if kept is None:
            return [([], []) for _ in cells]  # each block's RREF rows and pivots
        rows = (coker[:, None, :, None] * ker[None, :, None, :]).reshape(-1, c * b) % prime
        for k, cs in enumerate(cells):
            for lo in range(0, len(rows), len(cs)):
                if len(kept[k][1]) < len(cs):
                    kept[k] = modp_row_reduce(kept[k][0] + rows[lo : lo + len(cs), cs].tolist(),
                                              prime)[:2]
        return kept

    def space_of(kept):
        vectors = []
        for cs, (rref, pivots) in zip(cells, kept):
            for row in modp_rref_kernel(rref, pivots, len(cs), prime):
                vectors.append(np.zeros(c * b, dtype=np.int64))
                vectors[-1][cs] = row
        return Subspace.from_vectors(vectors, c * b, prime)

    return _rnd_rounds(pencil, prime, seed, max_samples, cut, space_of)


def rnd_plain_intersection(pencil, prime=DEFAULT_PRIME, seed=0, max_samples=512):
    """The second oracle: rnd one draw at a time, each accepted sample's
    formed constraint rows added whole to one EchelonOracle, its kernel
    the space: the constraints at the samples alone, not over their torus
    orbits."""
    c, b = pencil.target_dim, pencil.source_dim

    def cut(ech, coker, ker):
        if ech is None:
            return EchelonOracle(c * b, prime)
        ech.add((coker[:, None, :, None] * ker[None, :, None, :]).reshape(-1, c * b))
        return ech

    return _rnd_rounds(pencil, prime, seed, max_samples, cut,
                       lambda ech: Subspace.from_vectors(ech.kernel(), c * b, prime))


# the pencils of the benchmark's rnd workload
RND_PENCILS = [
    build_koszul_pencil(2, 7), build_gl_pencil((2, 1), (2, 1, 1), 4),
    build_koszul_pencil(2, 6), build_so_pencil((2,), (2, 1), 4), build_spin_pencil(5),
    build_gl_pencil((2,), (2, 1), 3),
]
RND_IDS = ["koszul-2-7", "gl-21-211-v4", "koszul-2-6", "so-2-21-m4", "spin-5", "gl-2-21-v3"]


@pytest.mark.parametrize("seed", [0, 7301])
@pytest.mark.parametrize("pen", RND_PENCILS, ids=RND_IDS)
def test_rnd_matches_the_one_at_a_time_oracle(pen, seed):
    assert rnd(pen, seed=seed) == rnd_one_at_a_time(pen, seed=seed)[0]


@pytest.mark.parametrize("seed", [0, 7301])
@pytest.mark.parametrize("pen", RND_PENCILS, ids=RND_IDS)
def test_rnd_needs_no_more_samples_than_the_plain_intersection(pen, seed):
    # over each sample's torus orbit the constraints can only be more, so
    # the same space comes in as many samples or fewer
    got, want = rnd(pen, seed=seed), rnd_plain_intersection(pen, seed=seed)[0]
    assert (got.verdict, got.space, got.method) == (want.verdict, want.space, want.method)
    assert got.samples_used <= want.samples_used


@pytest.mark.parametrize("pen", RND_PENCILS[-2:], ids=["spin-5", "gl-2-21-v3"])
def test_rnd_builds_the_canonical_subspace_only_for_the_report(pen, monkeypatch):
    # the rounds read the block kernels, L's dimension is a rank; Subspace
    # is built only for the reported space
    calls = {"from_vectors": 0, "_kernels": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Subspace, "from_vectors",
                        staticmethod(counted("from_vectors", Subspace.from_vectors)))
    monkeypatch.setattr(analysis, "_kernels", counted("_kernels", analysis._kernels))
    rep = rnd(pen, seed=0)
    assert calls["from_vectors"] == 1
    assert calls["_kernels"] >= 1
    assert isinstance(rep.space, Subspace)


@pytest.mark.parametrize("stack_bytes, echelon_cells", [
    pytest.param(800, linalg.ECHELON_CELLS, id="800"),  # stacks of two int64 8x6 matrices
    pytest.param(16, 16, id="16"),  # each matrix to the echelon
    pytest.param(1, linalg.ECHELON_CELLS, id="one-per-stack"),
    pytest.param(analysis.STACK_BYTES, 0, id="echelon-under-a-large-stack-budget"),
])
def test_rnd_matches_the_oracle_in_small_chunks(stack_bytes, echelon_cells):
    # at 800 bytes and below each stack holds one block, and at 16 bytes
    # and below a block of w cells takes the rows of a batch w at a time
    pen = build_gl_pencil((2,), (2, 1), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "STACK_BYTES", stack_bytes)
        mp.setattr(linalg, "ECHELON_CELLS", echelon_cells)
        assert rnd(pen, seed=1) == rnd_one_at_a_time(pen, seed=1)[0]


@st.composite
def _planted_torus_pencils(draw):
    """A pencil of at most 3 variables and 5 x 5 matrices whose nonzero
    coefficients (v, r, c) all have y_r - z_c = w_v, for weights drawn
    from [-2, 2], and those weights."""
    s, c, b = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    w, y, z = (draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for n in (s, c, b))
    cells = [(v, r, j) for v in range(s) for r in range(c) for j in range(b)
             if y[r] - z[j] == w[v]]
    assume(cells)
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    nums = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(chosen),
                         max_size=len(chosen)))
    coeffs = tuple(sorted(cell + (x,) for cell, x in zip(chosen, nums)))
    return Pencil(s, b, c, coeffs, 1, tuple(f"x{i}" for i in range(s))), w + y + z


@given(_planted_torus_pencils(), st.sampled_from((7, 101, DEFAULT_PRIME)), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_rnd_on_a_planted_torus_matches_the_block_oracle(case, prime, seed):
    pen, planted = case
    w, y, z, _ = pen.torus
    # the planted weights solve the support equations: they add no rank
    lattice = np.concatenate([w, y, z], axis=1)
    assert qq_rank(np.concatenate([lattice, [planted]])) == qq_rank(lattice) == len(w)
    got, (want, _, accepted) = rnd(pen, prime, seed), rnd_one_at_a_time(pen, prime, seed)
    assert got == want
    # the block space lies in the constraints at the same samples alone, and holds L
    ambient = pen.target_dim * pen.source_dim
    plain = EchelonOracle(ambient, prime)
    for coker, ker in accepted:
        plain.add((coker[:, None, :, None] * ker[None, :, None, :]).reshape(-1, ambient))
    assert Subspace.from_vectors(plain.kernel(), ambient, prime).contains_subspace(got.space)
    span = pen.coeff_array_modp(prime).reshape(pen.nvars, ambient)
    assert got.space.contains_subspace(Subspace.from_vectors(span, ambient, prime))


def test_rnd_rejects_zero_draws_like_the_oracle():
    # over F_3, one draw in 27 is the zero point, of rank 0: at seed 4 the
    # third (seed 0 now stops after 20 draws, before its first zero)
    pen = build_gl_pencil((2,), (2, 1), 3)
    want, draws, _ = rnd_one_at_a_time(pen, prime=3, seed=4)
    assert draws[2] == (0, False)
    assert rnd(pen, prime=3, seed=4) == want


def _two_by_two_blocks(k: int) -> Pencil:
    """The direct sum of k blocks [[x, y], [0, x]], each in its own x, y.
    Over F_3 a point has full rank 2k only when every x is nonzero, and
    rank 2k - 1 when one x is zero and its y is not; there the kernel and
    cokernel sit in that block, where every A_i maps the kernel into the
    image, so the pencil's span stays in the constraints."""
    coeffs = []
    for j in range(k):
        coeffs += [(2 * j, 2 * j, 2 * j, 1), (2 * j, 2 * j + 1, 2 * j + 1, 1),
                   (2 * j + 1, 2 * j, 2 * j + 1, 1)]
    return Pencil(2 * k, 2 * k, 2 * k, tuple(sorted(coeffs)), 1,
                  tuple(f"x{i}" for i in range(2 * k)))


def test_rnd_accepts_draws_above_the_sampled_generic_rank_like_the_oracle():
    # at seed 5 the 20 trials of generic_rank miss full rank, and later
    # draws of full rank pass the test b - dim Ker >= r like any other
    pen = _two_by_two_blocks(5)
    want, draws, _ = rnd_one_at_a_time(pen, prime=3, seed=5)
    r = want.method["generic_rank"]
    assert any(rank > r and accepted for rank, accepted in draws)
    assert rnd(pen, prime=3, seed=5) == want


def test_rnd_recovers_a_generic_rank_that_its_trials_missed():
    # over F_3, diag(x_1..x_6) has full rank at 64/729 of the points; the 20
    # trials at seed 0 read 5, so the first round accepts rank-5 samples,
    # whose constraints the span escapes.  rnd samples on until it accepts
    # a rank-6 draw, restarts at rank 6 and keeps the span inside
    pen = Pencil(6, 6, 6, tuple((i, i, i, 1) for i in range(6)), 1,
                 tuple(f"x{i}" for i in range(6)))
    assert generic_rank(pen, 3, trials=20, seed=0) == 5
    rep = rnd(pen, prime=3, seed=0)
    assert rep == rnd_one_at_a_time(pen, prime=3, seed=0)[0]
    assert rep.method["generic_rank"] == 6
    span = Subspace.from_vectors(pen.coeff_array_modp(3).reshape(6, 36), 36, 3)
    assert rep.space.contains_subspace(span)
    # at full rank no direction changes the rank: every 6x6 matrix is neutral
    assert (rep.verdict, rep.space.dim) == ("strictly-larger", 36)


# -- Koszul flattening -------------------------------------------------------


def test_flattening_anchor():
    assert koszul_flattening_rank((2,), (2, 1), 3) == 18


def _tensor_pencil(v: int, c: int, b: int, coeffs) -> Pencil:
    return Pencil(nvars=v, source_dim=b, target_dim=c, coeffs=tuple(coeffs),
                  denom=1, var_labels=tuple(f"x{i}" for i in range(v)))


def test_flattening_zero_tensor():
    assert flattening_rank_of_tensor(_tensor_pencil(3, 3, 4, ())) == 0


def test_flattening_rank_one_tensor_bound():
    v = 3
    a, b, c = [1, 2, 3], [1, -1, 2, 0], [2, 1]
    coeffs = [(i, j, k, a[i] * b[j] * c[k]) for i in range(v) for j in range(4)
              for k in range(2) if b[j]]
    assert flattening_rank_of_tensor(_tensor_pencil(v, 4, 2, coeffs)) <= v - 1


# -- induced-operator rank formula -------------------------------------------


def test_theta_formula_trivial_values():
    assert theta_rank_formula(3, 4, 0) == 0
    assert theta_rank_formula(1, 1, 1) == 0
    assert theta_rank_formula(2, 2, 2) == 2


def test_theta_formula_closed_form():
    for a in range(1, 5):
        for b in range(1, 5):
            for r in range(min(a, b) + 1):
                want = (a * b * r - a * comb(r + 1, 2) - b * comb(r, 2)
                        + 2 * comb(r + 1, 3))
                assert theta_rank_formula(a, b, r) == want


def test_theta_formula_range_check():
    with pytest.raises(ValueError):
        theta_rank_formula(2, 2, 3)
