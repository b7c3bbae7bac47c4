import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpencils import modules, tensors
from crpencils.linalg import EXACT_BOUND
from crpencils.modules import (
    FormSpec,
    a_vector,
    beta_pairing,
    clifford_unit,
    contractions,
    exp_two_form,
    gamma_pairing,
    lie_action,
    orthogonal_form,
    orthogonal_module,
    schur_module,
    spin_lie_action,
    spin_lie_on_w,
    spin_space,
    symplectic_form,
    symplectic_module,
    wedge,
    wedge_e,
)
from crpencils.partitions import gl_dim, so_module_dim, sp_module_dim
from crpencils.pencils import build_gl_pencil
from crpencils.tensors import (
    GradedSpan,
    WordBatch,
    apply_symmetrizer,
    chevalley_generators,
    perm_sign,
    semistandard_tableaux,
    square_matrix,
    tableau_word,
    tensor_iadd,
)
from word_oracles import (
    basis_tensors,
    contract,
    coordinate_dicts,
    form_lie_basis,
    form_value,
    integer_scaled,
    pivot_words,
    qq_kernel,
    tensors_of,
    word_grade,
)


def partitions_up_to(n, max_rows):
    out = []

    def rec(remaining, maxpart, acc):
        if acc:
            out.append(tuple(acc))
        if remaining == 0 or len(acc) == max_rows:
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return sorted(set(out))


def batch_in(mod, *ts):
    """The tensors scaled to primitive integer tensors, as one batch."""
    return WordBatch.from_tensors([integer_scaled(t)[0] for t in ts], mod.degree,
                                  mod.group.natural_dim)


def integer_matrix(X):
    assert all(Fraction(x).denominator == 1 for row in X for x in row)
    return [[int(x) for x in row] for row in X]


def random_tensor_in(mod, rng, nnz=3):
    out = {}
    for _ in range(nnz):
        i = rng.randrange(mod.dim)
        c = Fraction(rng.randint(-4, 4))
        if c:
            for w, x in basis_tensors(mod.span)[i].items():
                v = out.get(w, Fraction(0)) + c * x
                if v:
                    out[w] = v
                else:
                    del out[w]
    return out


def rref_first_span(lam, form):
    """The contraction kernel taken on an RREF basis of S_lam(V): the Schur
    span is brought to RREF first, and each weight block's kernel is taken
    on its integer-scaled rows, with the word-by-word contraction.  Kept
    here as the oracle of the build that takes the kernel on the
    symmetrized tableau tensors directly."""
    d, weights = sum(lam), form.letter_weights
    words = [{tableau_word(t): 1} for t in semistandard_tableaux(lam, form.dim)]
    schur = GradedSpan.from_tensors(
        apply_symmetrizer(WordBatch.from_tensors(words, d, form.dim), lam), weights)
    blocks = {}
    for u in tensors_of(schur.scaled_batch):
        blocks.setdefault(word_grade(next(iter(u)), weights), []).append(u)
    kept = []
    for vecs in blocks.values():
        constraints = {}
        for j, t in enumerate(vecs):
            for s1, s2 in combinations(range(d), 2):
                for w, c in contract(t, s1, s2, form).items():
                    constraints.setdefault(((s1, s2), w), {})[j] = c
        rows = [[r.get(j, 0) for j in range(len(vecs))] for r in constraints.values()]
        for kvec in qq_kernel(rows, len(vecs)).tolist():
            nt = {}
            for j, c in enumerate(kvec):
                if c:
                    tensor_iadd(nt, vecs[j], c)
            kept.append(nt)
    return GradedSpan.from_tensors(WordBatch.from_tensors(kept, d, form.dim), weights)


# the partitions inside (3, 2, 1)
INSIDE_321 = [lam for lam in partitions_up_to(6, 3)
              if all(x <= y for x, y in zip(lam, (3, 2, 1)))]


class TestSchurModules:
    def test_long_row_is_polynomial(self):
        # a row pass of k slots is k - 1 coset passes, of 2, 3, ..., k moves;
        # each sums equal words, so it holds a few times the distinct
        # arrangements of a tensor's words (at most 1,680 for 9 letters < 3),
        # never k! terms per word: every tensor of S^8 C^3 holds up to 560
        # words, and expanding 9! permutations of each would take gigabytes
        assert schur_module((9,), 3).dim == 55
        for build, args in [(schur_module, ((9,), 3)), (schur_module, ((12,), 2)),
                            (build_gl_pencil, ((8,), (9,), 3)),
                            (build_gl_pencil, ((11,), (12,), 2))]:
            tracemalloc.start()
            try:
                build.__wrapped__(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 << 20, (build.__name__, args)

    def test_dims_small(self):
        for v in range(1, 5):
            for lam in partitions_up_to(4, v):
                assert schur_module(lam, v).dim == gl_dim(lam, v)

    def test_dims_degree_five(self):
        for lam in partitions_up_to(5, 5):
            if sum(lam) == 5:
                assert schur_module(lam, 5).dim == gl_dim(lam, 5)

    def test_natural_module(self):
        m = schur_module((1,), 3)
        assert m.dim == 3

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            schur_module((1, 1, 1), 2)

    def test_gl_stability(self):
        rng = random.Random(0)
        for lam, v in [((2, 1), 3), ((2, 2), 4), ((3, 1), 4)]:
            mod = schur_module(lam, v)
            torus = [square_matrix(v, {(k, k): 1}) for k in range(v)]
            for X in chevalley_generators(v) + torus:
                t = random_tensor_in(mod, rng)
                assert not mod.span.coordinates(lie_action([X], batch_in(mod, t)))[3].any()

    def test_identity_acts_by_degree(self):
        mod = schur_module((2, 1), 3)
        one = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
        t = tensors_of(mod.span.scaled_batch)[0]
        got = tensors_of(lie_action([one], batch_in(mod, t)))
        assert got == [{w: 3 * c for w, c in t.items()}]


FORMS = [symplectic_form(4), symplectic_form(6), orthogonal_form(4), orthogonal_form(5)]


@st.composite
def form_batches(draw):
    """(form, d, tensors): 0-5 integer tensors of degree 0-4 over the form's
    letters, some empty.  In some, a word whose letters at slots s1 < s2
    are partners sits beside that word with the two letters swapped, so that
    its contraction over (s1, s2) cancels: equal coefficients for the
    antisymmetric symplectic form, opposite ones for the symmetric form."""
    form = draw(st.sampled_from(FORMS))
    d = draw(st.integers(0, 4))
    words = st.tuples(*[st.integers(0, form.dim - 1)] * d)
    ts = draw(st.lists(st.dictionaries(words, st.integers(-9, 9).filter(bool), max_size=6),
                       max_size=5))
    partner = form.partners[0].tolist()
    for t in ts:
        if d >= 2 and draw(st.booleans()):
            s1, s2 = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                                          unique=True)))
            w = list(draw(words))
            w[s2] = partner[w[s1]]
            swapped = list(w)
            swapped[s1], swapped[s2] = w[s2], w[s1]
            c = draw(st.integers(1, 9))
            t[tuple(w)] = c
            t[tuple(swapped)] = c if form.kind == "symplectic" else -c
    return form, d, ts


@settings(max_examples=120, deadline=None)
@given(form_batches())
def test_batched_contractions_match_the_word_loop(case):
    form, d, ts = case
    got = tensors_of(contractions(WordBatch.from_tensors(ts, d, form.dim), form))
    assert got == [contract(t, s1, s2, form) for t in ts for s1, s2 in combinations(range(d), 2)]


def test_contractions_pinned():
    # q(e_4) = 1 for the non-isotropic letter of SO(5)
    got = contractions(WordBatch.from_tensors([{(4, 4): 3}], 2, 5), orthogonal_form(5))
    assert tensors_of(got) == [{(): 3}]
    got = contractions(WordBatch.from_tensors([{(4, 2, 4): 1, (3, 0, 1): 2}], 3, 5),
                       orthogonal_form(5))
    assert tensors_of(got) == [{}, {(2,): 1}, {(3,): 2}]
    # omega(e_1, e_0) = -1: e_0 e_1 + e_1 e_0 contracts to 0, e_0 e_1 - e_1 e_0 to 2
    got = contractions(WordBatch.from_tensors(
        [{(1, 0): 1}, {(0, 1): 1, (1, 0): 1}, {(0, 1): 1, (1, 0): -1}], 2, 4), symplectic_form(4))
    assert tensors_of(got) == [{(): -1}, {}, {(): 2}]
    # the sum of two terms below 2^62 can pass it
    big = {(0, 1): EXACT_BOUND - 1, (1, 0): EXACT_BOUND - 1}
    got = contractions(WordBatch.from_tensors([big], 2, 4), orthogonal_form(4))
    assert got.coef.dtype == object and tensors_of(got) == [{(): 2 * EXACT_BOUND - 2}]
    # below two slots there is no pair, hence no contraction
    assert contractions(WordBatch.from_tensors([{(2,): 1}], 1, 5), orthogonal_form(5)).n == 0


class TestForms:
    def test_partners_and_letter_weights(self):
        partner, value = symplectic_form(4).partners
        assert partner.tolist() == [1, 0, 3, 2] and value.tolist() == [1, -1, 1, -1]
        partner, value = orthogonal_form(5).partners
        assert partner.tolist() == [1, 0, 3, 2, 4] and value.tolist() == [1] * 5
        # the cached arrays are shared by every caller
        assert not partner.flags.writeable and not orthogonal_form(5).letter_weights.flags.writeable
        assert orthogonal_form(5).letter_weights.tolist() == [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 0]]
        for gram in (((1, 1), (1, 1)), ((1, 0), (0, 0))):
            with pytest.raises(AssertionError, match="not in split coordinates"):
                FormSpec("orthogonal", 2, gram).partners

    def test_gram_shapes(self):
        w = symplectic_form(6)
        assert form_value(w, 0, 1) == 1 and form_value(w, 1, 0) == -1
        q = orthogonal_form(5)
        assert form_value(q, 0, 1) == form_value(q, 1, 0) == 1 and form_value(q, 4, 4) == 1
        assert form_value(q, 0, 0) == 0

    def test_lie_basis_preserves_form(self):
        for form in (symplectic_form(4), orthogonal_form(5), orthogonal_form(6)):
            g = form.gram
            n = form.dim
            basis = form_lie_basis(form)
            assert len(basis) == (n * (n + 1) // 2 if form.kind == "symplectic" else n * (n - 1) // 2)
            for X in basis:
                for i in range(n):
                    for j in range(n):
                        lhs = sum(X[k][i] * g[k][j] + g[i][k] * X[k][j] for k in range(n))
                        assert lhs == 0

    def test_dual_tensor_invariant(self):
        for form in (symplectic_form(4), orthogonal_form(5)):
            qhat = WordBatch.from_tensors([integer_scaled(form.dual_tensor())[0]], 2, form.dim)
            for X in form_lie_basis(form):
                assert tensors_of(lie_action([integer_matrix(X)], qhat)) == [{}]


class TestFormModules:
    @pytest.mark.parametrize("realize, lam, n", [(schur_module, (2, 1, 1), 6),
                                                 (orthogonal_module, (3, 1, 1), 5)])
    def test_one_rref_call_per_span_and_one_for_the_kernels(self, realize, lam, n,
                                                            monkeypatch):
        # every grade block of a span, and every weight block's contraction
        # constraints, go to qq_rref in one batch
        calls = []
        for owner in (modules, tensors):
            rref = owner.qq_rref
            monkeypatch.setattr(owner, "qq_rref", lambda blocks, rref=rref, owner=owner: (
                calls.append((owner.__name__, len(blocks))) or rref(blocks)))
        mod = realize.__wrapped__(lam, n)
        kernels = [] if realize is schur_module else ["crpencils.modules"]
        assert [owner for owner, _ in calls] == kernels + ["crpencils.tensors"]
        assert all(count > 1 for _, count in calls) and mod.dim == realize(lam, n).dim

    def test_symplectic_dims(self):
        assert symplectic_module((1, 1), 6).dim == 14
        assert symplectic_module((1, 1, 1), 6).dim == 14
        assert symplectic_module((1,), 4).dim == 4
        assert symplectic_module((2,), 4).dim == sp_module_dim((2,), 4)

    def test_orthogonal_dims(self):
        assert orthogonal_module((2,), 3).dim == 5
        for m in (3, 4, 5):
            assert orthogonal_module((2,), m).dim == (m * m + m - 2) // 2
            assert orthogonal_module((2, 1), m).dim == (m ** 3 - 4 * m) // 3

    def test_orthogonal_dims_hooks(self):
        assert orthogonal_module((3, 1, 1), 5).dim == 81
        assert orthogonal_module((3, 2, 1), 5).dim == 105

    def test_contractions_vanish(self):
        for mod in (symplectic_module((1, 1), 6), orthogonal_module((2, 1), 4)):
            d = mod.degree
            for t in basis_tensors(mod.span):
                for s1, s2 in combinations(range(d), 2):
                    assert contract(t, s1, s2, mod.form) == {}

    def test_lie_stability(self):
        rng = random.Random(1)
        for mod in (symplectic_module((1, 1), 6), orthogonal_module((2,), 5)):
            gens = form_lie_basis(mod.form)
            for _ in range(10):
                X = integer_matrix(gens[rng.randrange(len(gens))])
                t = random_tensor_in(mod, rng)
                assert not mod.span.coordinates(lie_action([X], batch_in(mod, t)))[3].any()

    def test_degree_one(self):
        assert symplectic_module((1,), 6).dim == 6

    @pytest.mark.parametrize("cells", [1, 7])
    def test_chunked_build_equals_the_unchunked(self, monkeypatch, cells):
        for realize, lam, dim in [(orthogonal_module, (2, 1), 5), (symplectic_module, (2, 1), 4),
                                  (orthogonal_module, (1, 1, 1), 4)]:
            whole = realize(lam, dim).span
            monkeypatch.setattr(modules, "PASS_CELLS", cells)
            monkeypatch.setattr(tensors, "PASS_CELLS", cells)
            part = realize.__wrapped__(lam, dim).span
            monkeypatch.undo()
            assert part.scales == whole.scales
            for a, c in ((whole.scaled_batch.code, part.scaled_batch.code),
                         (whole.scaled_batch.coef, part.scaled_batch.coef),
                         (whole.pivots, part.pivots)):
                assert np.array_equal(a, c)

    @pytest.mark.parametrize("realize, lam, dim, want", [
        (orthogonal_module, (), 5, 1), (symplectic_module, (), 4, 1),
        (orthogonal_module, (1,), 3, 3), (orthogonal_module, (1, 1), 2, 1),
        (orthogonal_module, (2,), 2, 2)])
    def test_edge_modules(self, realize, lam, dim, want):
        # below two boxes there is no slot pair; the one tensor e_0 ^ e_1 of
        # Lambda^2 C^2 has every contraction with a symmetric form cancel,
        # so its constraint matrix is empty
        mod = realize(lam, dim)
        assert mod.dim == want
        assert basis_tensors(mod.span) == basis_tensors(rref_first_span(lam, mod.form))

    @pytest.mark.parametrize("group, dim", [("Sp", 4), ("Sp", 6), ("SO", 4), ("SO", 5)])
    def test_tableau_kernel_matches_the_rref_first_route(self, group, dim):
        if group == "Sp":
            form, realize, lams = symplectic_form(dim), symplectic_module, [
                lam for lam in INSIDE_321 if sp_module_dim(lam, dim)]
        else:
            form, realize, lams = orthogonal_form(dim), orthogonal_module, [
                lam for lam in INSIDE_321 if so_module_dim(lam, dim)]
        assert len(lams) >= 6
        for lam in lams:
            span, oracle = realize(lam, dim).span, rref_first_span(lam, form)
            assert basis_tensors(span) == basis_tensors(oracle)
            assert pivot_words(span) == pivot_words(oracle)


READER_MODULES = [(schur_module, (2, 1), 3), (symplectic_module, (1, 1), 6),
                  (orthogonal_module, (2, 1), 4)]


@pytest.mark.parametrize("realize,lam,dim", READER_MODULES)
class TestCoordinateReader:
    def test_reads_integer_combinations_of_the_scaled_basis(self, realize, lam, dim):
        mod = realize(lam, dim)
        scaled, scales = tensors_of(mod.span.scaled_batch), mod.span.scales
        rng = random.Random(3)
        combos = [[rng.randint(-3, 3) for _ in scaled] for _ in range(4)] + [[0] * len(scaled)]
        ts = []
        for a in combos:
            t = {}
            for ak, u in zip(a, scaled):
                tensor_iadd(t, u, ak)
            ts.append(t)
        # u_k = s_k b_k, so sum_k a_k u_k has the coordinates a_k s_k
        assert coordinate_dicts(mod.span, WordBatch.from_tensors(ts, mod.degree, dim)) == [
            {k: ak * s for k, (ak, s) in enumerate(zip(a, scales)) if ak} for a in combos]

    def test_refuses_a_changed_coefficient_and_a_missing_weight(self, realize, lam, dim):
        mod = realize(lam, dim)
        scaled, scales, pivots = (tensors_of(mod.span.scaled_batch), mod.span.scales,
                                  pivot_words(mod.span))
        k, u = next((k, u) for k, u in enumerate(scaled) if len(u) > 1)
        w = next(w for w in u if w not in pivots)
        changed = {**u, w: u[w] + 1}
        # (0, ..., 0) has the content, and the torus weight, d e_1, which is
        # not a weight of the module: no basis tensor holds a word of it
        zero = (0,) * mod.degree
        assert all(zero not in t for t in scaled)
        lacking = {**u, zero: 1}
        got = coordinate_dicts(
            mod.span, WordBatch.from_tensors([u, changed, lacking, {zero: 1}], mod.degree, dim))
        assert got == [{k: scales[k]}, None, None, None]
        with pytest.raises(ValueError):
            mod.span.coordinates(WordBatch.from_tensors([u], mod.degree, dim + 1))


def basis_vector_w(j, n):
    w = [0] * (2 * n)
    w[j] = 1
    return w


def clifford_action(w, s, n):
    """(e + f) . s = e ^ s + f -| s for w = (e-coords, f-coords) in E + F."""
    out = {}
    for j, x in enumerate(w):
        if x:
            tensor_iadd(out, clifford_unit(j, s, n), Fraction(x))
    return out


def square_two_form(d2):
    """delta2 ^ delta2 by the double loop over pairs of index pairs with
    explicit permutation signs.  Kept here as the oracle of `wedge`."""
    out = {}
    for i1, c1 in d2.items():
        for i2, c2 in d2.items():
            if set(i1) & set(i2) or not (c1 and c2):
                continue
            merged = i1 + i2
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0) + perm_sign(merged) * c1 * c2
    return {I: c for I, c in out.items() if c}


index_sets = st.sets(st.integers(0, 7), max_size=4).map(lambda x: tuple(sorted(x)))
forms = st.dictionaries(st.sets(st.integers(0, 6), max_size=3).map(lambda x: tuple(sorted(x))),
                        st.integers(-3, 3), max_size=5)
two_forms = st.integers(2, 7).flatmap(lambda n: st.dictionaries(
    st.sampled_from(list(combinations(range(n), 2))), st.integers(-4, 4), max_size=12))


class TestExterior:
    @given(index_sets, index_sets)
    def test_basis_wedge_is_the_sorting_sign(self, I, J):
        want = {} if set(I) & set(J) else {tuple(sorted(I + J)): perm_sign(I + J)}
        assert wedge({I: 1}, {J: 1}) == want
        if len(I) == 1:
            assert wedge_e(I[0], {J: 1}) == want

    @settings(max_examples=60, deadline=None)
    @given(forms, forms, forms)
    def test_wedge_is_associative_and_bilinear(self, r, s, t):
        assert wedge(wedge(r, s), t) == wedge(r, wedge(s, t))
        sum_st = tensor_iadd(dict(s), t)
        assert wedge(r, sum_st) == tensor_iadd(wedge(r, s), wedge(r, t))

    @settings(max_examples=60, deadline=None)
    @given(two_forms)
    def test_square_and_exp_of_a_two_form_match_the_double_loop(self, d2):
        assert wedge(d2, d2) == square_two_form(d2)
        got = exp_two_form(d2)
        assert got[()] == 1
        assert {I: c for I, c in got.items() if len(I) == 2} == {I: c for I, c in d2.items() if c}
        assert {I: 2 * c for I, c in got.items() if len(I) == 4} == square_two_form(d2)

    def test_exp_of_disjoint_pairs_is_their_product(self):
        # exp(sum c_i e_pair_i) = prod (1 + c_i e_pair_i) for disjoint pairs;
        # the 6-form is delta2^3 / 3!, a term only the full sum has
        got = exp_two_form({(0, 1): 2, (2, 3): 3, (4, 5): 5})
        assert got == {(): 1, (0, 1): 2, (2, 3): 3, (4, 5): 5, (0, 1, 2, 3): 6,
                       (0, 1, 4, 5): 10, (2, 3, 4, 5): 15, (0, 1, 2, 3, 4, 5): 30}


class TestSpin:
    def test_dims(self):
        for n, d in [(2, 2), (5, 16), (6, 32)]:
            ss = spin_space(n)
            assert len(ss.even_basis) == len(ss.odd_basis) == d

    def test_clifford_basics(self):
        n = 3
        one = {(): Fraction(1)}
        assert clifford_action(basis_vector_w(0, n), one, n) == {(0,): Fraction(1)}
        e1 = {(0,): Fraction(1)}
        assert clifford_action(basis_vector_w(n + 0, n), e1, n) == one

    def test_clifford_relation_basis(self):
        # w.w.s = q(w) s; basis vectors of W are isotropic in split coordinates
        for n in (2, 3, 5):
            ss = spin_space(n)
            for j in range(2 * n):
                w = basis_vector_w(j, n)
                for I in ss.even_basis + ss.odd_basis:
                    s = {I: Fraction(1)}
                    assert clifford_action(w, clifford_action(w, s, n), n) == {}

    def test_clifford_relation_mixed(self):
        n = 4
        rng = random.Random(2)
        for _ in range(30):
            w = [rng.randint(-3, 3) for _ in range(2 * n)]
            q = sum(Fraction(w[i]) * w[n + i] for i in range(n))
            I = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            s = {I: Fraction(1)}
            got = clifford_action(w, clifford_action(w, s, n), n)
            assert got == ({I: q} if q else {})

    def test_gamma_bilinear(self):
        n = 5
        rng = random.Random(3)
        ss = spin_space(n)

        def rand_even():
            return {
                I: Fraction(rng.randint(-3, 3))
                for I in ss.even_basis
                if rng.random() < 0.5
            }

        s, t, t2 = rand_even(), rand_even(), rand_even()
        lhs = gamma_pairing(s, {k: t.get(k, Fraction(0)) + t2.get(k, Fraction(0)) for k in set(t) | set(t2)}, n)
        r1, r2 = gamma_pairing(s, t, n), gamma_pairing(s, t2, n)
        for J in set(lhs) | set(r1) | set(r2):
            assert lhs.get(J, Fraction(0)) == r1.get(J, Fraction(0)) + r2.get(J, Fraction(0))

    def test_pure_spinors_in_quadric(self):
        # a vanishes on every basis pure spinor e_I (and scalar multiples)
        n = 5
        ss = spin_space(n)
        for I in ss.even_basis:
            delta = {I: Fraction(3)}
            assert gamma_pairing(delta, delta, n) == {}
            assert all(x == 0 for x in a_vector(delta, n))

    def test_a_vector_in_kernel(self):
        n = 5
        ss = spin_space(n)
        rng = random.Random(4)
        for _ in range(10):
            delta = {
                I: Fraction(rng.randint(-5, 5)) for I in ss.even_basis
            }
            delta = {k: v for k, v in delta.items() if v}
            av = a_vector(delta, n)
            assert clifford_action(av, delta, n) == {}

    def test_spin_lie_consistency(self):
        # [F_ab, w].s = F(w.s) - w.(F s), where spin_lie_on_w is 2 [F_ab, -]
        # and spin_lie_action is 4 F_ab, for every F_ab, not only the
        # generating pairs of spin_lie_generators
        n = 3
        ss = spin_space(n)
        rng = random.Random(5)
        for a, b in combinations(range(2 * n), 2):
            m = spin_lie_on_w(a, b, n)
            for _ in range(3):
                j = rng.randrange(2 * n)
                I = ss.even_basis[rng.randrange(len(ss.even_basis))]
                s = {I: Fraction(1)}
                w = basis_vector_w(j, n)
                lhs = {}
                from crpencils.tensors import tensor_iadd

                for i in range(2 * n):
                    if m[i][j]:
                        tensor_iadd(lhs, clifford_action(basis_vector_w(i, n), s, n), 2 * m[i][j])
                rhs = {}
                tensor_iadd(rhs, spin_lie_action(a, b, clifford_action(w, s, n), n), Fraction(1))
                tensor_iadd(rhs, clifford_action(w, spin_lie_action(a, b, s, n), n), Fraction(-1))
                assert lhs == rhs

    def test_beta_nondegenerate_pairing(self):
        n = 5
        ss = spin_space(n)
        # for odd n beta pairs Delta+ with Delta- (complement flips parity)
        mat = [
            [beta_pairing({I: 1}, {J: 1}, n) for J in ss.odd_basis]
            for I in ss.even_basis
        ]
        assert len(qq_kernel(mat, len(ss.even_basis))) == 0
