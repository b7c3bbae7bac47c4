"""The factored Young symmetrizer against its expansion into signed
permutations, which is kept here as the test oracle."""

from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpencils.partitions import conjugate
from crpencils.tensors import (
    _orbit,
    apply_symmetrizer,
    perm_sign,
    row_major_cells,
    symmetrize_rows,
)


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

coefficients = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
).filter(bool)  # sparse tensors store no zeros


@st.composite
def tensors_for(draw):
    lam = draw(st.sampled_from(SMALL_PARTITIONS))
    v = draw(st.integers(2, 4))
    words = st.tuples(*[st.integers(0, v - 1)] * sum(lam))
    t = draw(st.dictionaries(words, coefficients, min_size=1, max_size=6))
    return lam, t


@settings(max_examples=150, deadline=None)
@given(tensors_for())
def test_factored_symmetrizer_matches_expansion(case):
    lam, t = case
    assert apply_symmetrizer(t, lam) == apply_expanded(t, expanded_symmetrizer(lam))


def test_factored_symmetrizer_pinned_321():
    lam = (3, 2, 1)
    assert len(expanded_symmetrizer(lam)) == 144
    t = {(0, 1, 2, 0, 1, 0): 3, (0, 0, 1, 1, 2, 3): Fraction(-1, 2),
         (2, 1, 0, 3, 0, 1): 5}
    got = apply_symmetrizer(t, lam)
    assert got
    assert got == apply_expanded(t, expanded_symmetrizer(lam))
    # integer tensors stay integer
    assert all(type(c) is int for c in apply_symmetrizer({(0, 1, 2, 0, 1, 0): 1}, lam).values())
    # a letter repeated in a column dies
    assert apply_symmetrizer({(0, 1, 2, 0, 1, 2): 1}, (1, 1, 1, 1, 1, 1)) == {}


def permutation_orbit(key, signed):
    """sum_sigma (sign sigma) sigma.key over all d! permutations."""
    out = {}
    for perm in permutations(range(len(key))):
        arr = tuple(key[i] for i in perm)
        out[arr] = out.get(arr, 0) + (perm_sign(perm) if signed else 1)
    return {arr: c for arr, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7), st.booleans())
def test_orbit_matches_the_permutation_sum(letters, signed):
    key = tuple(sorted(letters))
    assert _orbit(key, signed) == permutation_orbit(key, signed)


def test_orbit_of_repeated_letters_pinned():
    # 3 arrangements of {0, 0, 1}, each from 2! permutations
    assert _orbit((0, 0, 1), False) == {(0, 0, 1): 2, (0, 1, 0): 2, (1, 0, 0): 2}
    assert _orbit((0, 0, 1), True) == {}
    assert len(_orbit((0, 0, 0, 1, 1, 1, 2, 2, 2), False)) == 1680
    assert set(_orbit((0, 0, 0, 1, 1, 1, 2, 2, 2), False).values()) == {216}


@pytest.mark.parametrize("lam", SMALL_PARTITIONS, ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_adjoint_on_symmetrized_tensors_is_the_row_passes(lam, data):
    v = data.draw(st.integers(2, 4))
    words = st.tuples(*[st.integers(0, v - 1)] * sum(lam))
    t = data.draw(st.dictionaries(words, st.integers(-20, 20).filter(bool),
                                  min_size=1, max_size=6))
    s = apply_symmetrizer(t, lam)
    columns = prod(factorial(h) for h in conjugate(lam))
    assert apply_expanded(s, expanded_symmetrizer(lam, adjoint=True)) == {
        w: columns * c for w, c in symmetrize_rows(s, lam).items()}
