"""The factored Young symmetrizer against its expansion into signed
permutations, which is kept here as the test oracle."""

from fractions import Fraction
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from crpencils.partitions import conjugate
from crpencils.tensors import apply_symmetrizer, perm_sign, row_major_cells


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
@given(tensors_for(), st.booleans())
def test_factored_symmetrizer_matches_expansion(case, adjoint):
    lam, t = case
    assert apply_symmetrizer(t, lam, adjoint) == apply_expanded(
        t, expanded_symmetrizer(lam, adjoint))


def test_factored_symmetrizer_pinned_321():
    lam = (3, 2, 1)
    assert len(expanded_symmetrizer(lam)) == 144
    t = {(0, 1, 2, 0, 1, 0): 3, (0, 0, 1, 1, 2, 3): Fraction(-1, 2),
         (2, 1, 0, 3, 0, 1): 5}
    for adjoint in (False, True):
        got = apply_symmetrizer(t, lam, adjoint)
        assert got
        assert got == apply_expanded(t, expanded_symmetrizer(lam, adjoint))
    # integer tensors stay integer
    assert all(type(c) is int for c in apply_symmetrizer({(0, 1, 2, 0, 1, 0): 1}, lam).values())
    # the adjoint antisymmetrizes first: a letter repeated in a column dies
    assert apply_symmetrizer({(0, 1, 2, 0, 1, 0): 1}, lam, adjoint=True) == {}
    assert apply_symmetrizer({(0, 1, 2, 0, 1, 2): 1}, (1, 1, 1, 1, 1, 1)) == {}
