"""The batched Young symmetrizer, the batched derivation action and the
word-batch reshapes against per-tensor dict computations: the symmetrizer's
expansion into signed permutations, kept here, and the word loop of
word_oracles.derivation."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpencils import tensors
from crpencils.linalg import EXACT_BOUND
from crpencils.partitions import conjugate
from crpencils.tensors import (
    GradedSpan,
    WordBatch,
    apply_symmetrizer,
    linear_combinations,
    matrix_on_letters,
    perm_sign,
    row_major_cells,
    symmetrize_rows,
)

from word_oracles import basis_tensors, derivation, pivot_words, span_basis, tensors_of


def _group_perms(n, groups, signed):
    """All permutations of n slots fixing each group setwise, as (mapping,
    sign) with mapping[i] the destination slot of the letter in slot i."""
    per_group = []
    for g in groups:
        per_group.append([
            (g, perm, perm_sign([g.index(x) for x in perm]) if signed else 1)
            for perm in permutations(g)
        ])
    out = []
    for combo in product(*per_group):
        mapping = list(range(n))
        sign = 1
        for g, perm, s in combo:
            for src, dst in zip(g, perm):
                mapping[src] = dst
            sign *= s
        out.append((tuple(mapping), sign))
    return out


def expanded_symmetrizer(lam, adjoint=False):
    """Every column permutation composed after every row permutation, with
    the sign of the column permutation; the adjoint inverts each term."""
    slot = {c: i for i, c in enumerate(row_major_cells(lam))}
    rows = [[slot[i, j] for j in range(r)] for i, r in enumerate(lam)]
    cols = [[slot[i, j] for i in range(h)] for j, h in enumerate(conjugate(lam))]
    n = len(slot)
    row_perms = _group_perms(n, [r for r in rows if len(r) > 1], signed=False)
    col_perms = _group_perms(n, [c for c in cols if len(c) > 1], signed=True)
    out = []
    for cp, cs in col_perms:
        for rp, _ in row_perms:
            mapping = tuple(cp[rp[i]] for i in range(n))
            if adjoint:
                inv = [0] * n
                for i, m in enumerate(mapping):
                    inv[m] = i
                mapping = tuple(inv)
            out.append((mapping, cs))
    return out


def apply_expanded(t, perms):
    out = {}
    for w, c in t.items():
        for mapping, sign in perms:
            nw = [0] * len(w)
            for i, letter in enumerate(w):
                nw[mapping[i]] = letter
            key = tuple(nw)
            out[key] = out.get(key, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def _partitions(n, maxpart=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


SMALL_PARTITIONS = [lam for n in range(1, 6) for lam in _partitions(n)]


def batch(ts, lam, v):
    return WordBatch.from_tensors(ts, sum(lam), v)


@st.composite
def batches_for(draw):
    """(lam, v, tensors): 0-6 integer tensors of degree |lam|, some empty,
    words of mixed content, and in some a pair of words that the first row
    pass cancels: w and w with slots 0 and 1 swapped, opposite coefficients."""
    lam = draw(st.sampled_from(SMALL_PARTITIONS))
    v = draw(st.integers(2, 4))
    words = st.tuples(*[st.integers(0, v - 1)] * sum(lam))
    ts = draw(st.lists(st.dictionaries(words, st.integers(-20, 20).filter(bool), max_size=6),
                       max_size=6))
    for t in ts:
        if t and lam[0] > 1 and draw(st.booleans()):
            w, c = next(iter(t.items()))
            swapped = (w[1], w[0]) + w[2:]
            if swapped != w:
                t[swapped] = -c
    return lam, v, ts


@settings(max_examples=150, deadline=None)
@given(batches_for())
def test_factored_symmetrizer_matches_expansion(case):
    lam, v, ts = case
    expanded = expanded_symmetrizer(lam)
    assert tensors_of(apply_symmetrizer(batch(ts, lam, v), lam)) == [
        apply_expanded(t, expanded) for t in ts]


def test_factored_symmetrizer_pinned_321():
    lam = (3, 2, 1)
    assert len(expanded_symmetrizer(lam)) == 144
    ts = [{(0, 1, 2, 0, 1, 0): 3, (0, 0, 1, 1, 2, 3): -1, (2, 1, 0, 3, 0, 1): 5},
          {(0, 1, 2, 0, 1, 0): 1}]
    got = tensors_of(apply_symmetrizer(batch(ts, lam, 4), lam))
    assert all(got)
    assert got == [apply_expanded(t, expanded_symmetrizer(lam)) for t in ts]
    assert all(type(c) is int for t in got for c in t.values())
    # a letter repeated in a column dies
    assert tensors_of(apply_symmetrizer(batch([{(0, 1, 2, 0, 1, 2): 1}], (1,) * 6, 3),
                                        (1,) * 6)) == [{}]


def permutation_orbit(word, signed):
    """sum_sigma (sign sigma) sigma.word over all d! permutations."""
    out = {}
    for perm in permutations(range(len(word))):
        arr = tuple(word[i] for i in perm)
        out[arr] = out.get(arr, 0) + (perm_sign(perm) if signed else 1)
    return {arr: c for arr, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7), st.booleans())
def test_pass_over_every_slot_matches_the_permutation_sum(letters, signed):
    # one row (symmetrizing) or one column (antisymmetrizing) of len(letters) cells
    word, lam = tuple(letters), ((len(letters),) if not signed else (1,) * len(letters))
    got = tensors_of(apply_symmetrizer(batch([{word: 1}], lam, 4), lam))[0]
    assert got == permutation_orbit(word, signed)
    if not signed:  # each arrangement comes from prod_i m_i! permutations
        mult = prod(factorial(word.count(a)) for a in set(word))
        assert set(got.values()) == {mult}
        assert len(got) == factorial(len(word)) // mult


def test_pass_of_repeated_letters_pinned():
    # 3 arrangements of {0, 0, 1}, each from 2! permutations
    row = symmetrize_rows(batch([{(0, 0, 1): 1}], (3,), 2), (3,))
    assert tensors_of(row) == [{(0, 0, 1): 2, (0, 1, 0): 2, (1, 0, 0): 2}]
    assert tensors_of(apply_symmetrizer(batch([{(0, 0, 1): 1}], (1, 1, 1), 2), (1, 1, 1))) == [{}]
    nine = tensors_of(symmetrize_rows(batch([{(0, 0, 0, 1, 1, 1, 2, 2, 2): 1}], (9,), 3), (9,)))[0]
    assert len(nine) == 1680
    assert set(nine.values()) == {216}


def test_pass_is_exact_across_the_int64_bound():
    # the row pass of 3 slots is two coset passes, of 2 and 3 moves: the
    # word (0, 0, 0, 1) reaches 2c, then 6c, and int64 is kept while 6|c| <
    # 2^62; the column pass of 2 slots after it crosses 2^62 and sums Python
    # ints
    lam = (3, 1)
    for c in (EXACT_BOUND // 6 - 1, EXACT_BOUND // 6 + 1, -(EXACT_BOUND // 6)):
        t = {(0, 0, 0, 1): c, (0, 1, 0, 2): 5, (1, 0, 0, 1): -3, (2, 0, 1, 1): 7}
        rows = symmetrize_rows(batch([t], lam, 3), lam)
        assert rows.coef.dtype == (np.int64 if abs(c) * 6 < EXACT_BOUND else object)
        assert tensors_of(rows)[0][0, 0, 0, 1] == 6 * c
        got = apply_symmetrizer(batch([t], lam, 3), lam)
        assert got.coef.dtype == object
        assert tensors_of(got) == [apply_expanded(t, expanded_symmetrizer(lam))]


def _random_batch(rng, lam, v, n):
    d = sum(lam)
    return [{tuple(rng.randrange(v) for _ in range(d)): rng.randint(-9, 9) or 1
             for _ in range(rng.randrange(12))} for _ in range(n)]


@pytest.mark.parametrize("cells", [1, 7])
def test_chunked_passes_equal_the_unchunked(monkeypatch, cells):
    rng = random.Random(5)
    for lam in [(3, 2, 1), (2, 2, 1), (1, 1, 1, 1), (4, 1)]:
        b = batch(_random_batch(rng, lam, 4, 9), lam, 4)
        whole = apply_symmetrizer(b, lam)
        monkeypatch.setattr(tensors, "PASS_CELLS", cells)
        part = apply_symmetrizer(b, lam)
        monkeypatch.undo()
        assert whole.n == part.n
        for a, c in ((whole.idx, part.idx), (whole.code, part.code), (whole.coef, part.coef)):
            assert np.array_equal(a, c)


@pytest.mark.parametrize("lam", SMALL_PARTITIONS, ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_adjoint_on_symmetrized_tensors_is_the_row_passes(lam, data):
    v = data.draw(st.integers(2, 4))
    words = st.tuples(*[st.integers(0, v - 1)] * sum(lam))
    ts = data.draw(st.lists(st.dictionaries(words, st.integers(-20, 20).filter(bool),
                                            min_size=1, max_size=6), max_size=4))
    s = apply_symmetrizer(batch(ts, lam, v), lam)
    columns = prod(factorial(h) for h in conjugate(lam))
    adjoint = expanded_symmetrizer(lam, adjoint=True)
    assert [apply_expanded(t, adjoint) for t in tensors_of(s)] == [
        {w: columns * c for w, c in t.items()} for t in tensors_of(symmetrize_rows(s, lam))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_batched_derivation_matches_the_word_loop(v, d, data):
    # tensor i * G + g of the result is X_g on tensor i
    xs = data.draw(st.lists(st.lists(st.lists(st.integers(-3, 3), min_size=v, max_size=v),
                                     min_size=v, max_size=v), min_size=1, max_size=3))
    words = st.tuples(*[st.integers(0, v - 1)] * d)
    ts = data.draw(st.lists(st.dictionaries(words, st.integers(-9, 9).filter(bool), max_size=5),
                            max_size=4))
    got = tensors_of(matrix_on_letters(xs, WordBatch.from_tensors(ts, d, v)))
    assert got == [derivation(X, t) for t in ts for X in xs]


def test_batched_derivation_is_exact_past_the_int64_bound():
    X = [[0, 1], [3, 0]]
    t = {(0, 1, 1): EXACT_BOUND - 5, (1, 0, 1): -EXACT_BOUND, (1, 1, 1): 2 ** 70}
    got = matrix_on_letters([X], WordBatch.from_tensors([t], 3, 2))
    assert got.coef.dtype == object
    assert tensors_of(got) == [derivation(X, t)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_word_reshapes_match_the_word_loop(v, d, data):
    pos = data.draw(st.integers(0, d - 1))
    words = st.tuples(*[st.integers(0, v - 1)] * d)
    ts = data.draw(st.lists(st.dictionaries(words, st.integers(-9, 9).filter(bool), max_size=5),
                            max_size=4))
    b = WordBatch.from_tensors(ts, d, v)
    inserted = tensors_of(b.with_letter_inserted(pos))
    assert inserted == [{w[:pos] + (a,) + w[pos:]: c for w, c in t.items()}
                        for t in ts for a in range(v)]
    assert tensors_of(b.with_letter_inserted(pos).split_at(pos)) == [
        t if a == cut else {} for t in ts for a in range(v) for cut in range(v)]
    assert tensors_of(b.split_at(pos)) == [
        {w[:pos] + w[pos + 1:]: c for w, c in t.items() if w[pos] == a} for t in ts for a in range(v)]
    for first, part in b.chunks(data.draw(st.integers(0, 6))):
        assert part.n >= 1 and tensors_of(part) == ts[first:first + part.n]


def test_batches_refuse_what_they_cannot_hold_exactly():
    with pytest.raises(TypeError):
        WordBatch.from_tensors([{(0, 1): Fraction(1, 2)}], 2, 2)
    with pytest.raises(ValueError):
        WordBatch.from_tensors([{(0, 2): 1}], 2, 2)
    with pytest.raises(ValueError):
        WordBatch.from_tensors([{(0,) * 40: 1}], 40, 3)


@pytest.mark.parametrize("cells", [1, 7, 1 << 15])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_combinations_match_the_word_loop(cells, data):
    v, d = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    words = st.tuples(*[st.integers(0, v - 1)] * d)
    ts = data.draw(st.lists(st.dictionaries(words, st.integers(-9, 9).filter(bool), max_size=5),
                            min_size=1, max_size=5))
    big = data.draw(st.sampled_from([1, EXACT_BOUND]))
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, len(ts) - 1),
                                              st.integers(-3, 3).filter(bool), max_size=4),
                              max_size=5))
    want = []
    for row in rows:
        out = {}
        for j, c in row.items():
            for w, x in ts[j].items():
                out[w] = out.get(w, 0) + c * big * x
        want.append({w: x for w, x in out.items() if x})
    m = WordBatch.from_tensors([{(j,): c * big for j, c in row.items()} for row in rows],
                               1, len(ts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "PASS_CELLS", cells)
        assert tensors_of(linear_combinations(WordBatch.from_tensors(ts, d, v), m)) == want


@st.composite
def homogeneous_tensors(draw):
    """(v, d, tensors): 0-6 integer tensors of degree d over v letters, each
    on the arrangements of one multiset of letters; some empty, some on the
    multiset of an earlier one, and some with coefficients past 2^62, whose
    RREF entries pass it too."""
    v, d = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    big = draw(st.booleans())
    ts = []
    for _ in range(draw(st.integers(0, 6))):
        if ts and draw(st.booleans()):
            base = next(iter(draw(st.sampled_from(ts))), (0,) * d)
        else:
            base = draw(st.tuples(*[st.integers(0, v - 1)] * d))
        coefs = st.integers(-2 ** 70, 2 ** 70) if big else st.integers(-4, 4)
        ts.append({w: c for w, c in draw(st.dictionaries(
            st.permutations(base).map(tuple), coefs, max_size=4)).items() if c})
    return v, d, ts


@settings(max_examples=100, deadline=None)
@given(homogeneous_tensors())
def test_span_matches_the_word_loop(case):
    v, d, ts = case
    grades = np.eye(v, dtype=np.int64)
    span = GradedSpan.from_tensors(WordBatch.from_tensors(ts, d, v), grades)
    basis = basis_tensors(span)
    assert basis == span_basis(ts, grades)
    assert [b[w] for b, w in zip(basis, pivot_words(span))] == [1] * span.dim
    # u_k = s_k b_k is primitive
    for u in tensors_of(span.scaled_batch):
        assert gcd(*u.values()) == 1


def test_span_refuses_a_tensor_of_two_grades():
    with pytest.raises(ValueError, match="grade-homogeneous"):
        GradedSpan.from_tensors(WordBatch.from_tensors([{(0, 1): 1, (0, 0): 1}], 2, 2),
                                np.eye(2, dtype=np.int64))
