import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crpencils import linalg
from crpencils.linalg import (
    DEFAULT_PRIME,
    EXACT_BOUND,
    Subspace,
    check_prime,
    distinct_primitive_rows,
    modp_kernel,
    modp_rank,
    modp_rref,
    qq_rank,
    qq_rref,
)
from word_oracles import (
    fraction_rref,
    integer_rows,
    kernel_rows,
    mat_mod,
    modp_matmul,
    modp_ranks,
    modp_row_reduce,
    modp_rref_kernel,
    qq_kernel,
    reduce_mod,
    scaled_rref,
)

PRIMES_31BIT = [2147483629, 2147483587, 2147483563]

int_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination: the
    oracle for qq_rank and for the mod-p ranks of small matrices."""
    a = [list(map(int, row)) for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    prev, r = 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nrows:
            break
    return r


def rand_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


class TestRank:
    def test_zero_and_identity(self):
        assert qq_rank([[0] * 3 for _ in range(3)]) == 0
        assert qq_rank([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4
        assert modp_rank(np.eye(4, dtype=np.int64), DEFAULT_PRIME) == 4

    def test_fraction_entries(self):
        # rows of anything but Python ints are refused; their integer rows rank
        for m, r in (([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]], 2),
                     ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]], 1),
                     ([[1, 2], [2, 4.0]], 1)):
            with pytest.raises(TypeError):
                qq_rank(m)
            assert qq_rank(integer_rows(m)) == r

    @given(int_matrices)
    def test_bareiss_matches_rref(self, m):
        assert bareiss_rank(m) == len(qq_rref([m])[0][0]) == qq_rank(m)

    @given(int_matrices)
    def test_rank_nullity_qq(self, m):
        ncols = len(m[0])
        assert qq_rank(m) + len(qq_kernel(m)) == ncols

    @given(int_matrices, st.sampled_from(PRIMES_31BIT))
    def test_rank_nullity_modp(self, m, p):
        a = mat_mod(m, p)
        assert len(modp_rref(a, p)[1]) + kernel_rows(a[None], p)[0].shape[0] == a.shape[1]

    @given(int_matrices)
    @settings(max_examples=30)
    def test_modular_consistency(self, m):
        # small integer entries: no 31-bit prime divides a nonzero minor here
        r = qq_rank(m)
        for p in PRIMES_31BIT:
            assert modp_rank(mat_mod(m, p), p) == r


def _stacks(primes, max_dim, entries):
    """(p, N x m x n int list) with every matrix reduced into [0, p)."""
    return st.tuples(
        st.sampled_from(primes), st.integers(1, 4), st.integers(1, max_dim),
        st.integers(1, max_dim),
    ).flatmap(lambda t: st.tuples(
        st.just(t[0]),
        st.lists(st.lists(st.lists(entries(t[0]), min_size=t[3], max_size=t[3]),
                          min_size=t[2], max_size=t[2]),
                 min_size=t[1], max_size=t[1]),
    ))


class TestBatchedRank:
    @given(_stacks((3, 5, 7, 32749, 32771, DEFAULT_PRIME), 9,
                   lambda p: st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))))
    @settings(max_examples=200)
    def test_matches_per_matrix_rank(self, case):
        p, mats = case
        stack = np.array(mats, dtype=np.int64)
        assert modp_ranks(stack, p).tolist() == [len(modp_rref(a, p)[1]) for a in stack]

    @given(_stacks((DEFAULT_PRIME,), 6, lambda p: st.integers(-1, 1)))
    @settings(max_examples=200)
    def test_matches_rank_over_q_for_sign_matrices(self, case):
        # Hadamard: every minor of a 0/+-1 matrix up to 6x6 is at most
        # 6^3 = 216 < p in absolute value, so the rank mod p is the rank over Q
        _, mats = case
        stack = np.array(mats, dtype=np.int64)
        assert modp_ranks(stack, DEFAULT_PRIME).tolist() == [bareiss_rank(m) for m in mats]

    @pytest.mark.parametrize("p, n", [(1048573, 5), (3, 128)])
    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=10, deadline=None)
    def test_lazy_reduction_mid_elimination(self, p, n, seed):
        # unreduced entries outgrow int64 after about 3 pivot steps at
        # p = 1048573 and, for these random matrices, after about 100 at
        # p = 3, so these ranks read garbage unless the kernel reduces
        # mid-elimination; modp_rref, which ranks each matrix by _rref, is
        # the reference
        rng = random.Random(seed)
        stack = np.array([_tall_rank_deficient(p, rng, n, n, r)
                          for r in (n - 2, n - 1, n)])
        with pytest.MonkeyPatch.context() as mp:  # keep 128x128 on the stacked loop
            mp.setattr(linalg, "ECHELON_CELLS", n * n)
            assert modp_ranks(stack, p).tolist() == [len(modp_rref(a, p)[1]) for a in stack]


@given(int_matrices, st.sampled_from((3, 7, DEFAULT_PRIME)), st.booleans())
def test_matmul_matches_exact_product(m, p, reduce_first):
    # the right factor is used as is when already reduced, and reduced otherwise
    a = [[x * (p - 2) for x in row] for row in m]
    b = [[row[j] - 4 * j for row in m] for j in range(len(m[0]))]
    bb = mat_mod(b, p) if reduce_first else np.array(b, dtype=np.int64)
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert modp_matmul(np.array(a, dtype=np.int64), bb, p).tolist() == want


EXACT_PRIMES = (3, 5, 46337, 2147483629, 2147483647)


@given(st.sampled_from(EXACT_PRIMES), st.integers(0, 6), st.integers(0, 40),
       st.integers(0, 6), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
@settings(max_examples=150)
def test_exact_product_matches_python_ints(p, m, k, n, seed, tiny_chunks, centred):
    # tiny_chunks splits the inner dimension into chunks of 3 to exercise
    # the recombination across chunks; centred operands lie in |x| <= p/2
    rng = random.Random(seed)
    top = rng.choice((1, p - 1))
    shift = p // 2 if centred else 0
    a = [[rng.randint(0, top) - shift for _ in range(k)] for _ in range(m)]
    b = [[rng.randint(0, top) - shift for _ in range(n)] for _ in range(k)]
    want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)]
            for i in range(m)]
    chunk = 3 if tiny_chunks else linalg._EXACT_INNER
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_EXACT_INNER", chunk)
        got = modp_matmul(np.array(a, dtype=np.int64).reshape(m, k),
                          np.array(b, dtype=np.int64).reshape(k, n), p)
    assert got.tolist() == want


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_exact_product_worst_case(p):
    # every residue p-1 (then every centred residue -(p-1)/2) and an inner
    # dimension above 2^16: the float64 limb sums reach k (2^16 - 1)^2 > 2^48
    # and must still be exact
    k = (1 << 16) + 3
    for x in (p - 1, -(p // 2)):
        a = np.full((2, k), x, dtype=np.int64)
        b = np.full((k, 3), x, dtype=np.int64)
        assert modp_matmul(a, b, p).tolist() == [[k * x * x % p] * 3] * 2


@pytest.mark.parametrize("p", (46337, DEFAULT_PRIME))
@pytest.mark.parametrize("sign", (1, -1))
def test_exact_product_at_the_float64_limit(p, sign):
    # k max|a| max|b| just below 2^53 is one exact float64 product; just
    # above, the odd 2^53 + 2^27 + 2^26 + 1 rounds in float64, so the
    # operands must be reduced (46337) or split into limbs (DEFAULT_PRIME).
    # Operands past 2^45 must be reduced before the split too: their high
    # limbs would reach 2^29
    for x, y in (((1 << 27) - 1, 1 << 26), ((1 << 27) + 1, (1 << 26) + 1),
                 ((1 << 45) + 123456789, (1 << 45) + 987654321)):
        a = np.array([[sign * x], [x]], dtype=np.int64)
        b = np.array([[y, sign]], dtype=np.int64)
        want = [[sign * x * y % p, x % p], [x * y % p, sign * x % p]]
        assert modp_matmul(a, b, p).tolist() == want
        assert modp_matmul(a.astype(np.float64), b, p).tolist() == want
        # the F_p entry points read such integer floats exactly
        row = np.array([[sign * x, y]], dtype=np.float64)
        assert modp_rref(row, p)[0].tolist() == [[1, y * pow(sign * x, -1, p) % p]]


@pytest.mark.parametrize("p", (2147483629, 2147483647))
@pytest.mark.parametrize("k", (64, 65))
def test_exact_product_splits_one_operand_up_to_its_inner_limit(p, k):
    # k (p-1) (2^16 - 1) < 2^53 holds for k = 64 and fails for k = 65: the
    # last inner dimension that splits only b into limbs, and the first that
    # splits both.  Entries p-1 throughout, then p-2, whose odd low limb
    # makes the sums odd, so a float64 sum past 2^53 would round, then
    # random residues
    rng = random.Random(k)
    for top in (p - 1, p - 2, None):
        a = [[top or rng.randrange(p) for _ in range(k)] for _ in range(3)]
        b = [[top or rng.randrange(p) for _ in range(2)] for _ in range(k)]
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(2)]
                for i in range(3)]
        got = modp_matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == want


@given(st.sampled_from((3, 101, 32749, DEFAULT_PRIME)), st.sampled_from((63, 64, 65)),
       st.integers(0, 4), st.integers(0, 4), st.sampled_from(("top", "odd", "random")),
       st.integers(0, 2 ** 32))
@settings(max_examples=120, deadline=None)
def test_one_reduction_products_match_python_ints(p, k, m, n, fill, seed):
    # at DEFAULT_PRIME k = 63 and 64 split b into two limbs and k = 65 both
    # operands into four; the smaller primes split b into two.  Entries
    # p-1, or p-2 whose odd low limb makes the sums odd, or random residues
    rng = random.Random(seed)
    draw = {"top": lambda: p - 1, "odd": lambda: p - 2, "random": lambda: rng.randrange(p)}[fill]
    a = [[draw() for _ in range(k)] for _ in range(m)]
    b = [[draw() for _ in range(n)] for _ in range(k)]
    c = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    ab = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    want_ab = [[x % p for x in row] for row in ab]
    want = [[(c[i][j] - ab[i][j]) % p for j in range(n)] for i in range(m)]
    a, b = np.array(a, dtype=np.int64).reshape(m, k), np.array(b, dtype=np.int64).reshape(k, n)
    # modp_matmul also of operands outside [0, p), which the F_p entry
    # points reduce as they read them
    for got in (modp_matmul(a, b, p), modp_matmul(a - p, b + p, p)):
        assert got.dtype == np.int64 and got.tolist() == want_ab
    assert modp_rref(a - p, p)[0].tolist() == modp_rref(a + p, p)[0].tolist() == (
        modp_rref(a, p)[0].tolist())
    # _product also of minus in (-p, 0]
    minus = np.array(c, dtype=np.int64).reshape(m, n)
    for got, expect in ((linalg._product(a, b, p), want_ab), (linalg._product(a, b, p, minus), want),
                        (linalg._product(a, b, p, minus - p), want)):
        assert got.dtype == np.int64 and got.tolist() == expect


_STACK_PRIMES = (3, 7, 11, 127, 131, 32749, 32771, DEFAULT_PRIME)


@given(st.sampled_from(_STACK_PRIMES), st.integers(0, 6), st.integers(1, 5), st.integers(0, 5),
       st.sampled_from((3, 2 ** 20, 2 ** 50)), st.sampled_from((0, 2 ** 40)),
       st.integers(0, 2 ** 32))
@example(p=127, r=3, k=5, n=4, top=2 ** 20, below=0, seed=0)  # past int16: read as int64
@example(p=7, r=2, k=5, n=2, top=2 ** 50, below=2 ** 40, seed=1)  # int8, limbs of one bit
@settings(max_examples=150, deadline=None)
def test_stack_product_matches_python_ints(p, r, k, n, top, below, seed):
    # c @ x^T mod p into a stack_dtype(p) array, through f alone: one
    # product, the int64 reading of a product past the stack's dtype, and
    # Horner's rule over limbs of x; x also below 0 or past p
    rng = random.Random(seed)
    c = [[rng.randint(-top, top) for _ in range(k)] for _ in range(r)]
    x = [[rng.randint(-below, p - 1 + below) for _ in range(k)] for _ in range(n)]
    want = [[sum(ci * xi for ci, xi in zip(row, pt)) % p for pt in x] for row in c]
    f, e = linalg.stack_buffers(r * n, p)
    e = e.reshape(r, n)
    got = linalg.stack_product(np.array(c, dtype=np.float64).reshape(r, k),
                               np.array(x, dtype=np.int64).reshape(n, k), p, f.reshape(r, n), e)
    assert got is e and e.dtype == linalg.stack_dtype(p)
    assert got.tolist() == want


def test_stack_product_refuses_coefficients_past_exact_products():
    f, e = linalg.stack_buffers(1, 7)
    with pytest.raises(ValueError, match="exact float64"):
        linalg.stack_product(np.full((1, 2), 2.0 ** 52), np.ones((1, 2), dtype=np.int64), 7,
                             f.reshape(1, 1), e.reshape(1, 1))


@given(st.sampled_from((3, 101, DEFAULT_PRIME)), st.integers(0, 90), st.integers(1, 40),
       st.integers(0, 40), st.integers(0, 2 ** 32))
@example(p=3, nrows=0, ncols=5, rank=0, seed=0)
@settings(max_examples=60, deadline=None)
def test_one_shot_eliminations_match_the_echelon(p, nrows, ncols, rank, seed):
    # modp_rref and the large route of modp_ranks eliminate the matrix at
    # once by _rref, the recursive halving, against the row-by-row
    # modp_row_reduce; modp_rank takes the stacked loop at these sizes (at
    # most 90 x 40 cells, below ECHELON_CELLS), and kernels take it
    # whatever the bound
    rng = random.Random(seed)
    a = _tall_rank_deficient(p, rng, nrows, ncols, min(rank, nrows, ncols))
    want_rows, want_pivots, raised = modp_row_reduce(a.tolist(), p)
    assert modp_rank(a, p) == len(raised)
    rows, pivots = modp_rref(a, p)
    assert (rows.tolist(), pivots) == (want_rows, want_pivots)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ECHELON_CELLS", 0)  # every matrix alone
        assert modp_ranks(a[None], p).tolist() == [len(raised)]
        assert kernel_rows(a[None], p)[0].tolist() == modp_rref_kernel(
            want_rows, want_pivots, ncols, p)


@given(st.integers(0, 12), st.integers(1, 8), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_lifted_rref_matches_the_echelon_at_its_first_prime(nrows, ncols, seed):
    # qq_rref's RREF over Q, read mod DEFAULT_PRIME, is the row-by-row
    # reduction's there whenever the prime keeps the rank
    rng = random.Random(seed)
    a = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    want_rows, want_pivots, _ = modp_row_reduce(a, DEFAULT_PRIME)
    u, s, pivots = qq_rref([np.array(a, dtype=np.int64).reshape(nrows, ncols)])[0]
    assert len(want_pivots) <= len(pivots)
    if len(want_pivots) == len(pivots):
        inv = [pow(int(x), -1, DEFAULT_PRIME) for x in s.tolist()]
        got = [[x * i % DEFAULT_PRIME for x in row] for row, i in zip(u.tolist(), inv)]
        assert (got, pivots) == (want_rows, want_pivots)


def _tall_rank_deficient(p, rng, nrows, ncols, rank):
    left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)],
                    dtype=np.int64).reshape(nrows, rank)
    right = np.array([[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)],
                     dtype=np.int64).reshape(rank, ncols)
    return modp_matmul(left, right, p)


@given(st.sampled_from((3, 101, DEFAULT_PRIME)), st.integers(0, 64), st.integers(0, 40),
       st.integers(0, 64), st.lists(st.integers(0, 63), max_size=8), st.integers(0, 2 ** 32))
@example(p=3, nrows=0, ncols=5, rank=0, zeros=[], seed=0)
@example(p=101, nrows=1, ncols=7, rank=1, zeros=[], seed=0)
@example(p=101, nrows=40, ncols=0, rank=0, zeros=[], seed=0)
@example(p=DEFAULT_PRIME, nrows=64, ncols=40, rank=40, zeros=[], seed=1)
@example(p=DEFAULT_PRIME, nrows=33, ncols=30, rank=7, zeros=[0, 16, 17, 32], seed=2)
@example(p=3, nrows=64, ncols=20, rank=0, zeros=[], seed=3)
@settings(max_examples=60, deadline=None)
def test_recursive_elimination_matches_gauss_jordan(p, nrows, ncols, rank, zeros, seed):
    # more than 16 rows are split in halves, at most 16 go to _gauss_jordan
    rng = random.Random(seed)
    a = _tall_rank_deficient(p, rng, nrows, ncols, min(rank, nrows, ncols))
    a[[z for z in zeros if z < nrows]] = 0
    want = linalg._gauss_jordan(a.copy(), p)
    got = linalg._eliminate(a.copy(), p)
    for w, g in zip(want, got):
        assert (g.shape, g.tolist()) == (w.shape, w.tolist())


def _echelon_kernel(a, p):
    """The oracle: the kernel basis of one matrix from modp_row_reduce."""
    rows, pivots, _ = modp_row_reduce(a.tolist(), p)
    kernel = modp_rref_kernel(rows, pivots, a.shape[1], p)
    return np.array(kernel, dtype=np.int64).reshape(len(kernel), a.shape[1])


# 32749 and 32771 are the primes on either side of _forward's int64 stack
# reducing every third step or every second
@given(st.sampled_from((3, 101, 32749, 32771, DEFAULT_PRIME)), st.integers(0, 9),
       st.integers(0, 9), st.lists(st.integers(0, 9), max_size=5), st.integers(0, 2 ** 32))
@example(p=3, m=2, n=6, ranks=[], seed=0)
@example(p=101, m=7, n=3, ranks=[], seed=0)
@example(p=DEFAULT_PRIME, m=3, n=8, ranks=[2], seed=1)
@example(p=3, m=8, n=5, ranks=[5], seed=2)
@example(p=32749, m=9, n=9, ranks=[9, 8, 0], seed=3)
@example(p=32771, m=9, n=9, ranks=[9, 8, 0], seed=3)
@settings(max_examples=150, deadline=None)
def test_stacked_kernel_matches_the_echelon(p, m, n, ranks, seed):
    # N matrices of mixed rank from 0 to min(m, n), wide or tall: kernels on
    # the stacked route, ranks on it and, with the bound at 0, on _rref
    rng = random.Random(seed)
    stack = np.array([_tall_rank_deficient(p, rng, m, n, min(r, m, n)) for r in ranks],
                     dtype=np.int64).reshape(len(ranks), m, n)
    want = [_echelon_kernel(a, p) for a in stack]
    for echelon_cells in (linalg.ECHELON_CELLS, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "ECHELON_CELLS", echelon_cells)
            kernels = kernel_rows(stack, p)
            ranks_got = modp_ranks(stack, p).tolist()
        assert len(kernels) == len(ranks)
        for ker, w in zip(kernels, want):
            assert (ker.shape, ker.tolist()) == (w.shape, w.tolist())
        assert ranks_got == [n - len(ker) for ker in kernels]


# 7/11 and 127/131 sit on either side of stack_dtype's switches, 32749/32771
# on either side of an int64 stack reduced every third step or every second
@given(st.sampled_from((7, 11, 127, 131, 32749, 32771, DEFAULT_PRIME)), st.integers(0, 4),
       st.integers(0, 9), st.integers(0, 9), st.integers(0, 2 ** 32))
@example(p=7, count=2, m=3, n=0, seed=0)
@example(p=DEFAULT_PRIME, count=3, m=0, n=6, seed=1)
@settings(max_examples=100, deadline=None)
def test_modp_kernel_is_square_and_zero_at_the_pivots(p, count, m, n, seed):
    # row f of each (n, n) kernel is 0 at a pivot of modp_row_reduce, and
    # at a free column the basis row with 1 at f; A K^T = 0 mod p
    rng = random.Random(seed)
    stack = np.array([_tall_rank_deficient(p, rng, m, n, rng.randint(0, min(m, n)))
                      for _ in range(count)], dtype=np.int64).reshape(count, m, n)
    kernels = modp_kernel(stack, p)
    assert kernels.shape == (count, n, n) and kernels.dtype == np.int64
    assert ((kernels >= 0) & (kernels < p)).all()
    for a, k in zip(stack, kernels):
        pivots = modp_row_reduce(a.tolist(), p)[1]
        free = [f for f in range(n) if f not in pivots]
        assert np.flatnonzero(k.any(axis=1)).tolist() == free
        assert k[free, free].tolist() == [1] * len(free)
        assert not modp_matmul(a, k.T, p).any()


# 7 and 127 are the largest primes with 2(p-1)^2 below 2^7 and 2^15,
# eliminated in int8 and int16; 11 and 131 are the next primes, eliminated
# in the next wider type, int16 and int64.  At 7 and 127 the stack is
# reduced after every step, at 11 and 32771 after every second, at 32749
# after every third and at 131 after every sixth, so 14 or more columns
# force several reductions
@given(st.sampled_from((7, 11, 127, 131, 32749, 32771)), st.integers(0, 4),
       st.integers(0, 16), st.integers(0, 16), st.integers(0, 2 ** 32))
@example(p=32749, count=0, m=5, n=14, seed=0)
@example(p=32771, count=0, m=14, n=5, seed=0)
@example(p=32749, count=3, m=0, n=14, seed=0)
@example(p=32771, count=3, m=0, n=14, seed=0)
@example(p=7, count=4, m=16, n=16, seed=1)
@example(p=11, count=4, m=16, n=16, seed=1)
@example(p=127, count=4, m=16, n=16, seed=1)
@example(p=131, count=4, m=16, n=16, seed=1)
@example(p=32749, count=4, m=16, n=16, seed=1)
@example(p=32771, count=4, m=16, n=16, seed=1)
@settings(max_examples=100, deadline=None)
def test_stacked_elimination_across_the_dtype_switch(p, count, m, n, seed):
    rng = random.Random(seed)
    stack = np.array([_tall_rank_deficient(p, rng, m, n, rng.randint(0, min(m, n)))
                      for _ in range(count)], dtype=np.int64).reshape(count, m, n)
    # entries off by multiples of p, of both signs and past 2^31, are
    # reduced before the stack is narrowed
    shifted = stack + p * np.array([rng.randint(-2 ** 20, 2 ** 20) for _ in range(stack.size)],
                                   dtype=np.int64).reshape(stack.shape)
    want = [_echelon_kernel(a, p) for a in stack]
    for a in (stack, shifted):
        kernels = kernel_rows(a, p)
        assert [k.tolist() for k in kernels] == [k.tolist() for k in want]
        assert modp_ranks(a, p).tolist() == [n - len(k) for k in want]


@pytest.mark.parametrize("p", (7, 11, 127, 131, 32749, 32771, DEFAULT_PRIME))
def test_stacked_elimination_of_extreme_residues(p):
    # entries +-(p-1) among random residues, reduced to 1 and p-1: an
    # update of two of them nears its bound 2(p-1)^2, which overflows int8
    # above 7 and int16 above 127
    rng = random.Random(p)
    for m, n in ((6, 9), (9, 6), (8, 8)):
        stack = np.array([[[rng.choice((1 - p, p - 1, rng.randrange(p))) for _ in range(n)]
                           for _ in range(m)] for _ in range(6)], dtype=np.int64)
        want = [_echelon_kernel(a % p, p) for a in stack]
        assert [k.tolist() for k in kernel_rows(stack, p)] == [k.tolist() for k in want]
        assert modp_ranks(stack, p).tolist() == [n - len(k) for k in want]


def _staggered_stack(p, count, m, n, seed):
    """count m x n matrices of every rank from 0 to min(m, n) in turn, with
    the entries above row i mod m of column 0 cleared in matrix i, so that
    the matrices of one stack pivot on different rows of the same column."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((count, m, n), dtype=np.int64)
    for i in range(count):
        r = i % (min(m, n) + 1)
        stack[i] = modp_matmul(rng.integers(0, p, size=(m, r)), rng.integers(0, p, size=(r, n)), p)
        stack[i, : i % max(m, 1), 0] = 0
    return stack


# 668 matrices of 14 x 14 fill one int64 stack of 2^20 bytes (an int8 one
# holds 5,349, a stack of the exhaustive certify jobs)
@pytest.mark.parametrize("p", (7, DEFAULT_PRIME))
@pytest.mark.parametrize("count, m, n", [(668, 14, 14), (1, 14, 14), (3, 0, 14), (1, 0, 5)])
def test_stacked_elimination_of_benchmark_shapes(p, count, m, n):
    stack = _staggered_stack(p, count, m, n, seed=count + m + p)
    if count > m > 0:
        leads = {int(np.flatnonzero(a[:, 0])[0]) for a in stack if a[:, 0].any()}
        assert len(leads) > 1
    want = [_echelon_kernel(a, p) for a in stack]
    assert modp_ranks(stack, p).tolist() == [n - len(k) for k in want]
    kernels = kernel_rows(stack, p)
    assert len(kernels) == count
    for ker, w in zip(kernels, want):
        assert (ker.shape, ker.tolist()) == (w.shape, w.tolist())


def _triangular_product(p, m, n, rank, mult, row):
    """L U mod p, L the m x rank unit lower triangle with `mult` below the
    diagonal and U the rank x n upper triangle with pivots 2, 3, ... and
    `row` right of them: eliminated in order, each column c < rank pivots
    on row c, every multiplier a_ic / pivot is `mult` and the rest of the
    pivot row is `row`."""
    low = np.tril(np.full((m, rank), mult, dtype=object), -1) + np.eye(m, rank, dtype=object)
    up = np.triu(np.full((rank, n), row, dtype=object), 1)
    up[np.arange(rank), np.arange(rank)] = np.arange(2, rank + 2)
    return ((low @ up) % p).astype(np.int64)


@pytest.mark.parametrize("p", (DEFAULT_PRIME, 32771))
def test_delayed_reduction_at_its_bound(p):
    # 8 matrices of 96 x 24, 18,432 cells, take _forward's delayed update.
    # With multipliers h = (p-1)/2 and pivot rows -h, every update adds h^2
    # to the rows below, so at DEFAULT_PRIME an entry reaches (p-1) + 8 h^2
    # just below 2^63 and a ninth update wraps: reducing one column late
    # fails.  Multipliers and pivot rows of -1 add 1 as balanced residues
    # but (p-1)^2 as residues in [0, p), which wraps after two updates.
    # At 32771 no update comes near 2^63, so only the pivot column is reduced
    h = p // 2
    m, n = 96, 24
    assert m * n >= linalg._DELAYED_CELLS[0] and 8 * m * n >= linalg._DELAYED_CELLS[1]
    stack = np.array([_triangular_product(p, m, n, rank, mult, row)
                      for mult, row in ((h, -h), (-1, -1)) for rank in (24, 20, 9, 0)])
    want = [_echelon_kernel(a, p) for a in stack]
    assert [len(k) for k in want] == [0, 4, 15, 24] * 2
    assert [k.tolist() for k in kernel_rows(stack, p)] == [k.tolist() for k in want]
    assert modp_ranks(stack, p).tolist() == [n - len(k) for k in want]
    # random matrices of every rank, pivoting on different rows
    stack = _staggered_stack(p, 12, 64, 40, seed=p)
    want = [_echelon_kernel(a, p) for a in stack]
    assert [k.tolist() for k in kernel_rows(stack, p)] == [k.tolist() for k in want]
    assert modp_ranks(stack, p).tolist() == [40 - len(k) for k in want]


def test_batched_inverses():
    p = DEFAULT_PRIME
    for x in ([5], [0], [0, 0, 0], [3, 0, p - 1, 0, 1, 2 ** 30], [[2, 0], [0, 7]]):
        got = linalg._inverses(np.array(x, dtype=np.int64), p)
        want = np.vectorize(lambda v: pow(int(v), -1, p) if v else 0, otypes=[np.int64])(x)
        assert got.shape == want.shape and got.tolist() == want.tolist()
    assert linalg._inverses(np.zeros(0, dtype=np.int64), 7).shape == (0,)


@pytest.mark.parametrize("p", (3, 32749, 32771, DEFAULT_PRIME))
def test_mod_matches_python_mod(p):
    near = [lo + d for lo in (-2 ** 63, 2 ** 63 - p) for d in range(p if p < 100 else 100)]
    near += [2 ** 63 - 1 - d for d in range(50)] + [-2 ** 63 + d * p for d in range(50)]
    ints = near + [-p - 1, -p, -1, 0, 1, p - 1, p, p + 1, p * p, -p * p]
    # int64 entries within p of +-2^63, where (x // p) p wraps
    got = linalg._mod(np.array(ints, dtype=np.int64), p)
    assert got.dtype == np.int64 and got.tolist() == [x % p for x in ints]
    # object arrays past 2^63
    big = [x * 2 ** 70 + d for x in (-3, 5) for d in (-1, 0, 1)] + ints
    got = linalg._mod(np.array(big, dtype=object), p)
    assert got.tolist() == [x % p for x in big]
    # int32 entries below 2^31 in absolute value
    if p <= 32749:
        small = [lo + d for lo in (-2 ** 31, 2 ** 31 - 100) for d in range(100)] + [-1, 0, 1]
        got = linalg._mod(np.array(small, dtype=np.int32), p)
        assert got.dtype == np.int32 and got.tolist() == [x % p for x in small]
    # unsigned entries up to 2^64 - 1
    top = [2 ** 64 - 1 - d for d in range(50)] + [0, 1, p]
    got = linalg._mod(np.array(top, dtype=np.uint64), p)
    assert got.dtype == np.uint64 and got.tolist() == [x % p for x in top]
    # empty and 0-d arrays
    for dtype, x in ((np.int64, -7), (np.int32, -7), (np.uint64, 2 * p + 5), (object, -7)):
        empty = linalg._mod(np.zeros((0, 3), dtype=dtype), p)
        assert empty.shape == (0, 3) and empty.dtype == dtype
        got = linalg._mod(np.array(x, dtype=dtype), p)
        assert got.shape == () and got.dtype == dtype and got == x % p


_NOT_INTEGER = {
    "half": np.array([[0.5, 0.0], [0.0, 0.5]]),
    "fraction": [[Fraction(1, 7), 1]],
    "nan": np.array([[np.nan, 1.0]]),
    "inf": np.array([[np.inf, 1.0]]),
    "past-int64": np.array([[2.0 ** 63, 1.0]]),
    "numpy-float-object": np.array([[np.float64(1.0), 1]], dtype=object),
    "string": [["1", "0"]],
}


@pytest.mark.parametrize("rows", _NOT_INTEGER.values(), ids=_NOT_INTEGER)
def test_fp_eliminations_refuse_what_a_cast_would_truncate(rows):
    # the int64 cast read 0.5 as 0 and Fraction(1, 7) as 0: modp_rank of
    # diag(0.5, 0.5) was 0, and from_vectors([[1/7, 1]]) the span of (0, 1)
    p = 7
    a = np.asarray(rows)
    calls = [lambda: modp_rank(rows, p), lambda: modp_rref(rows, p),
             lambda: Subspace.from_vectors(rows, a.shape[1], p),
             lambda: kernel_rows(a[None], p)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_fp_eliminations_read_the_empty_list_as_the_empty_matrix():
    # [] raised numpy's AxisError on the F_p side, while qq_rank([]) is 0
    p = 7
    assert modp_rank([], p) == qq_rank([]) == 0
    rows, pivots = modp_rref([], p)
    assert (rows.shape, pivots) == ((0, 0), [])
    assert Subspace.from_vectors([], 0, p).basis == ()


def test_fp_eliminations_reduce_python_ints_past_int64():
    # 2^70 raised OverflowError in the int64 cast; numpy reads the rows with
    # 2^63 + 1 as float64, which would lose the 1, and [[2^63]] or
    # [[2^64 - 1]] as uint64, which the cast would wrap
    p = 7
    for big in ([[2 ** 70, 1]], [[2 ** 63 + 1, 1], [3, -(2 ** 65)]],
                [[2 ** 64 + 5, -(2 ** 70)], [0, 2 ** 63 - 1]], [[2 ** 63, 1]],
                [[2 ** 63]], [[2 ** 64 - 1]]):
        res = np.array([[x % p for x in row] for row in big], dtype=np.int64)
        n = res.shape[1]
        assert modp_rank(big, p) == modp_rank(res, p)
        assert modp_rref(big, p)[0].tolist() == modp_rref(res, p)[0].tolist()
        assert Subspace.from_vectors(big, n, p) == Subspace.from_vectors(res, n, p)
        stack = np.array(big, dtype=object)[None]
        assert kernel_rows(stack, p)[0].tolist() == kernel_rows(res[None], p)[0].tolist()
    assert modp_rank([[2 ** 70, 1]], p) == 1
    assert Subspace.from_vectors([[2 ** 70, 1]], 2, p).basis == ((1, 4),)  # 2^70 = 2 mod 7


def test_fp_eliminations_read_integer_floats_and_object_ints_as_int64():
    # coeff_array_modp's centred float stack, and the object rows of qq_rref
    p = 7
    ints = np.array([[3, -2, 0, 9], [6, -4, 0, 18], [1, 1, -1, 2]], dtype=np.int64)
    kernel = kernel_rows(ints[None], p)[0]
    for cast in (lambda a: a, lambda a: a.astype(np.float64), lambda a: a.astype(object),
                 lambda a: a.astype(np.int8), np.ndarray.tolist):
        rows = cast(ints)
        assert modp_rank(rows, p) == 2
        assert modp_rref(rows, p)[1] == modp_rref(ints, p)[1]
        assert Subspace.from_vectors(rows, 4, p) == Subspace.from_vectors(ints, 4, p)
        assert kernel_rows(np.asarray(rows)[None], p)[0].tolist() == kernel.tolist()


def test_rnd_imports_no_numpy_ma():
    # numpy.ma costs about 10 ms and 1.3 MB on first import; np.unique and
    # np.setdiff1d import it, the echelon and its kernel must not
    code = ("import sys\n"
            "from crpencils.analysis import rnd\n"
            "from crpencils.pencils import build_koszul_pencil\n"
            "rnd(build_koszul_pencil(2, 6), seed=0)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(linalg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_check_prime_is_miller_rabin():
    def is_odd_prime(n):
        return n > 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if is_odd_prime(n)] == [
        n for n in range(3000) if _accepts(n)]
    for p in (46337, 46327, DEFAULT_PRIME, 2147483647):
        assert check_prime(p) == p
    # a product of two primes near the top of the range, a Carmichael number,
    # a strong pseudoprime to base 2 and the range limits
    for n in (46337 * 46327, 561, 2047, 2 ** 31 + 11, 2, 1, 0, -7):
        assert not _accepts(n)


def _accepts(n):
    try:
        check_prime(n)
    except ValueError:
        return False
    return True


class TestKernelSolve:
    @given(int_matrices)
    def test_kernel_vectors_annihilate(self, m):
        for v in qq_kernel(m):
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0

    @given(int_matrices, st.sampled_from(PRIMES_31BIT))
    def test_modp_kernel_annihilates(self, m, p):
        a = mat_mod(m, p)
        ker = kernel_rows(a[None], p)[0]
        if ker.size:
            assert not modp_matmul(a, ker.T, p).any()

    def test_reduce_mod(self):
        assert reduce_mod(Fraction(1, 2), 7) == 4
        with pytest.raises(ZeroDivisionError):
            reduce_mod(Fraction(1, 7), 7)


class TestSubspace:
    def test_canonical_form(self):
        rng = random.Random(3)
        vecs = rand_matrix(rng, 3, 6)
        s1 = Subspace.from_vectors(vecs, 6, DEFAULT_PRIME)
        # scramble with invertible combinations
        mixed = [
            [2 * a + b for a, b in zip(vecs[0], vecs[1])],
            [a - 3 * c for a, c in zip(vecs[0], vecs[2])],
            vecs[2],
        ]
        s2 = Subspace.from_vectors(mixed, 6, DEFAULT_PRIME)
        assert s1.dim == 3
        assert s1 == s2

    def test_contains(self):
        for p in (7, DEFAULT_PRIME):
            s = Subspace.from_vectors([[1, 0, 1], [0, 1, 1]], 3, p)
            for v, inside in (([1, 1, 2], True), ([1, p + 1, 2], True), ([1, 1, 1], False)):
                assert s.contains_subspace(Subspace.from_vectors([v], 3, p)) == inside
        with pytest.raises(ValueError):
            Subspace.from_vectors([[1, 0, 1]], 3, 0)

    def test_residues_of_ints_and_fractions(self):
        p = 7
        vecs = [[2 ** 70, -1, 0], [Fraction(1, 2), 3, Fraction(-5, 3)]]
        want = [[reduce_mod(x, p) for x in row] for row in vecs]
        assert mat_mod(vecs, p).tolist() == want
        assert mat_mod(np.array([[-8, 9]]), p).tolist() == [[6, 2]]
        with pytest.raises(ZeroDivisionError):
            mat_mod([[Fraction(1, 7), 1]], p)

    def test_mismatched_ambient(self):
        a = Subspace.from_vectors([[1, 0]], 2, 7)
        b = Subspace.from_vectors([[1, 0, 0]], 3, 7)
        with pytest.raises(ValueError):
            a.contains_subspace(b)
        with pytest.raises(ValueError):
            a.contains_subspace(Subspace.from_vectors([[1, 0]], 2, 11))


@given(st.sampled_from((3, 101, DEFAULT_PRIME)), st.integers(1, 12), st.integers(0, 12),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_contains_subspace_of_sub_spans(p, ncols, rank, seed):
    rng = random.Random(seed)
    a = _tall_rank_deficient(p, rng, rank + 3, ncols, min(rank, ncols))
    space = Subspace.from_vectors(a, ncols, p)

    def combinations(k):
        return modp_matmul(_tall_rank_deficient(p, rng, k, len(a), len(a)), a, p).tolist()

    # random combinations of the rows span a subspace of the span
    sub = combinations(rng.randrange(len(a) + 1))
    assert space.contains_subspace(Subspace.from_vectors(sub, ncols, p))
    assert all(space.contains_subspace(Subspace.from_vectors([v], ncols, p)) for v in sub)
    pivots = {next(c for c, x in enumerate(row) if x) for row in space.basis}
    free = [c for c in range(ncols) if c not in pivots]
    if free:
        # a combination plus a nonzero entry in a free column leaves the span
        v = combinations(1)[0]
        f = rng.choice(free)
        v[f] = (v[f] + 1 + rng.randrange(p - 1)) % p
        assert not space.contains_subspace(Subspace.from_vectors([v], ncols, p))
        assert not space.contains_subspace(Subspace.from_vectors(sub + [v], ncols, p))


# -- the exact RREF lifted from F_p against plain Gauss-Jordan over Q --------


def fraction_kernel(rows, ncols):
    rref, pivots = fraction_rref(rows)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        out.append(v)
    return out


@st.composite
def rational_matrices(draw):
    """Small rational matrices of four kinds: plain, rank-deficient products,
    denominators divisible by DEFAULT_PRIME, and entries large enough that
    the RREF needs more than one prime."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("plain", "deficient", "p-denominators", "large")))

    def matrix(r, c, entries):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    small = st.integers(-5, 5)
    if kind == "plain":
        return matrix(nrows, ncols, st.fractions(-9, 9, max_denominator=7))
    if kind == "deficient":
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        b, c = matrix(nrows, k, small), matrix(k, ncols, small)
        return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(ncols)]
                for i in range(nrows)]
    if kind == "p-denominators":
        den = st.sampled_from((1, DEFAULT_PRIME, 3 * DEFAULT_PRIME, DEFAULT_PRIME ** 2))
        return [[Fraction(x, d) for x, d in zip(row, draw(st.lists(den, min_size=ncols,
                                                                   max_size=ncols)))]
                for row in matrix(nrows, ncols, small)]
    return matrix(nrows, ncols, st.integers(-10 ** 7, 10 ** 7))


def assert_scaled_rref(m, got):
    """got = qq_rref([m])[0]: u[k] / s[k] is the Gauss-Jordan RREF of m in
    Fractions, each u[k] primitive with s[k] = u[k, pivots[k]] > 0, and u
    is int64 exactly when no entry reaches EXACT_BOUND."""
    u, s, pivots = got
    assert (scaled_rref(u, s), pivots) == fraction_rref(m)
    assert s.tolist() == u[np.arange(len(u)), pivots].tolist()
    assert all(x > 0 for x in s.tolist())
    assert all(gcd(*row) == 1 for row in u.tolist())
    assert u.dtype == (np.int64 if linalg.max_abs(u) < EXACT_BOUND else object)
    assert s.dtype == u.dtype


def rref_lists(m):
    u, s, pivots = qq_rref([m])[0]
    return u.tolist(), s.tolist(), pivots


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_lifted_rref_matches_gauss_jordan(m):
    # the integer rows of m have its row space, so its RREF and kernel
    ncols = len(m[0])
    a = integer_rows(m)
    assert_scaled_rref(m, qq_rref([a])[0])
    # each kernel vector times the lcm of its denominators
    ker = qq_kernel(a)
    assert ker.tolist() == integer_rows(fraction_kernel(m, ncols))
    # the same from the integer matrix as an object and as an int64 array
    assert rref_lists(np.array(a, dtype=object)) == rref_lists(a)
    assert qq_kernel(np.array(a, dtype=object), ncols).tolist() == ker.tolist()
    if linalg.max_abs(np.array(a, dtype=object)) < EXACT_BOUND:
        assert rref_lists(np.array(a, dtype=np.int64)) == rref_lists(a)


@st.composite
def rref_blocks(draw):
    """One block of a qq_rref batch, as (its rows, the form handed over):
    a rational_matrices block, a zero or empty one, one row, or a block
    with entries past EXACT_BOUND, as rows of ints, an int64 array when
    every entry fits, or an object array."""
    kind = draw(st.sampled_from(("matrix", "matrix", "zero", "empty", "one-row", "huge")))
    ncols = draw(st.integers(1, 7))
    if kind == "matrix":
        m = integer_rows(draw(rational_matrices()))
    elif kind in ("zero", "empty"):
        m = [[0] * ncols for _ in range(draw(st.integers(1, 4)) if kind == "zero" else 0)]
    elif kind == "one-row":
        zeros = [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
        row = draw(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=ncols, max_size=ncols))
        m = zeros + [row] + zeros
    else:
        m = [[x * 2 ** 62 + y for x, y in zip(row, row[::-1])]
             for row in draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols,
                                               max_size=ncols), min_size=2, max_size=4))]
    fits = linalg.max_abs(np.array(m, dtype=object)) < 2 ** 63
    form = draw(st.sampled_from(("rows", "int64", "object") if fits else ("rows", "object")))
    if form == "rows":
        return m, m
    shape = (len(m), len(m[0]) if m else ncols)
    return m, np.array(m, dtype=np.int64 if form == "int64" else object).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.lists(rref_blocks(), min_size=1, max_size=10))
def test_a_batch_is_its_blocks_one_at_a_time(blocks):
    # each block of one batch, whatever stack or route it takes, gets the
    # Gauss-Jordan RREF and what the call on it alone gives
    got = qq_rref([form for _, form in blocks])
    assert len(got) == len(blocks)
    for (m, form), rref in zip(blocks, got):
        assert_scaled_rref(m, rref)
        alone = qq_rref([form])[0]
        assert rref_lists(form) == (rref[0].tolist(), rref[1].tolist(), rref[2])
        assert (alone[0].dtype, alone[0].shape) == (rref[0].dtype, rref[0].shape)


def test_lifted_rref_checks_past_int64():
    """The check product L A and A[:, pivots] @ ((L / s) u) passes 2^63, so
    it runs in Python ints; the RREF still equals the Fraction oracle."""
    rng = random.Random(11)
    cases = [
        [[2 ** 62, 0, 2 ** 62], [0, 3, 1]],  # a small RREF of a large A
        rand_matrix(rng, 4, 6, -10 ** 12, 10 ** 12),  # RREF entries past 2^62
        [[x * 2 ** 70 + y for x, y in zip(row, rand_matrix(rng, 1, 5)[0])]
         for row in rand_matrix(rng, 3, 5)],
    ]
    for m in cases:
        a = np.array(m, dtype=object)
        u, s, pivots = got = qq_rref([a])[0]
        assert_scaled_rref(m, got)
        scale = lcm(*s.tolist())
        product = a[:, pivots] @ (u.astype(object) * (scale // s.astype(object))[:, None])
        assert max(linalg.max_abs(product), scale * linalg.max_abs(a)) >= 2 ** 63


def _passes(a, pivots, u, s):
    """linalg._passes of one matrix, as a stack of one."""
    return bool(linalg._passes(a[None], np.array(pivots)[None], u[None], s[None])[0])


@pytest.mark.parametrize("big", [1, 2 ** 62])
def test_lift_check_rejects_a_perturbed_entry(big):
    m = [[2, 4, 1, 0, 3], [1, 3, 0, 5, 1], [3, 7, 1, 5, 4], [0, 1, 2, 1, 1]]
    rref, pivots = fraction_rref(m)
    a = np.array(m, dtype=object) * big
    scales = [lcm(*(x.denominator for x in row)) for row in rref]
    u = np.array([[x * sk for x in row] for row, sk in zip(rref, scales)], dtype=object)
    s = np.array(scales, dtype=object)
    assert _passes(a, pivots, u, s)
    for idx in np.ndindex(u.shape):
        for delta in (1, -1):
            bad = u.copy()
            bad[idx] += delta
            assert not _passes(a, pivots, bad, s)
    for k in range(len(s)):
        bad = s.copy()
        bad[k] += 1
        assert not _passes(a, pivots, u, bad)


def test_lift_check_sees_a_perturbation_that_int64_would_wrap():
    # every entry fits in int64, but 2^24 more in u[0, 2] moves the product
    # by 2^64, which int64 arithmetic would wrap to no change
    a = np.array([[2 ** 40, 0, 3 * 2 ** 40], [0, 1, 5]], dtype=np.int64)
    u, s = np.array([[1, 0, 3], [0, 1, 5]], dtype=np.int64), np.ones(2, dtype=np.int64)
    assert _passes(a, [0, 1], u, s)
    u[0, 2] += 2 ** 24
    assert not _passes(a, [0, 1], u, s)


def test_distinct_primitive_rows_keep_the_kernel():
    r, s = [2, -4, 0, 6], [0, 3, 3, -3]
    rows = [r, [-x for x in r], [0] * 4, [2 * x for x in r], s, [0] * 4, [-5 * x for x in s]]
    got = distinct_primitive_rows(np.array(rows, dtype=np.int64))
    assert got.tolist() == [[1, -2, 0, 3], [0, 1, 1, -1]]
    assert qq_kernel(got, 4).tolist() == qq_kernel(rows, 4).tolist()
    huge = np.array([[x * 2 ** 70 for x in row] for row in rows], dtype=object)
    assert distinct_primitive_rows(huge).tolist() == got.tolist()
    assert distinct_primitive_rows(np.zeros((3, 4), dtype=np.int64)).shape == (0, 4)
    assert distinct_primitive_rows(np.zeros((0, 4), dtype=np.int64)).shape == (0, 4)


@settings(max_examples=80, deadline=None)
@given(int_matrices, st.data())
def test_distinct_primitive_rows_keep_the_row_space(m, data):
    ncols = len(m[0])
    rows = m + [[k * x for x in data.draw(st.sampled_from(m))]
                for k in data.draw(st.lists(st.integers(-4, 4), max_size=6))]
    got = distinct_primitive_rows(np.array(rows, dtype=np.int64))
    assert len(set(map(tuple, got.tolist()))) == len(got)
    for row in got.tolist():
        assert next(x for x in row if x) > 0 and np.gcd.reduce(row) == 1
    assert rref_lists(got) == rref_lists(rows)
    assert qq_kernel(got, ncols).tolist() == qq_kernel(rows, ncols).tolist()


def _count_primes(monkeypatch):
    """The prime of each elimination qq_rref makes: each stack of its first
    prime and each later prime of a block alone."""
    seen = []
    rref, stack_rref = linalg._rref, linalg._stack_rref

    def counting(a, p):
        seen.append(p)
        return rref(a, p)

    def counting_stack(a, p):
        seen.append(p)
        return stack_rref(a, p)

    monkeypatch.setattr(linalg, "_rref", counting)
    monkeypatch.setattr(linalg, "_stack_rref", counting_stack)
    return seen


def test_lifted_rref_adds_a_prime_for_large_entries(monkeypatch):
    seen = _count_primes(monkeypatch)
    m = [[7, 10 ** 6, 0], [0, 0, 1], [14, 2 * 10 ** 6, 3]]
    u, s, pivots = qq_rref([m])[0]
    assert (scaled_rref(u, s), pivots) == ([[1, Fraction(10 ** 6, 7), 0], [0, 0, 1]], [0, 2])
    assert len(seen) == 2  # 10^6 > sqrt(p/2): one prime cannot lift it


def test_lifted_rref_skips_primes_that_divide_a_minor(monkeypatch):
    p = DEFAULT_PRIME
    seen = _count_primes(monkeypatch)
    # mod p the second row is a multiple of the first: rank 1, then rank 2
    u, s, pivots = qq_rref([[[1, 1], [1, 1 + p]]])[0]
    assert (scaled_rref(u, s), pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert seen[0] == p and len(seen) == 2
    # 1/p is an RREF entry: mod p the pivots move right; the later primes
    # need a CRT modulus above 2 p^2 to lift it
    seen.clear()
    u, s, pivots = qq_rref([[[p, 1, 0], [0, 0, 1], [2 * p, 2, 5]]])[0]
    assert (scaled_rref(u, s), pivots) == ([[1, Fraction(1, p), 0], [0, 0, 1]], [0, 2])
    assert seen[0] == p and len(seen) >= 3


def test_a_batch_sends_the_blocks_its_first_prime_misreads_to_the_lift_loop(monkeypatch):
    # mod DEFAULT_PRIME both blocks below lift, to the wrong RREF: only the
    # check of their stack sees it, and only the later primes mend it
    p = DEFAULT_PRIME
    wrong = [[[1, 1], [1, 1 + p]], [[p, 1, 0], [0, 0, 1], [2 * p, 2, 5]]]
    rng = random.Random(5)
    ordinary = [rand_matrix(rng, rows, cols, -9, 9) for rows, cols in
                [(2, 2), (3, 3), (2, 3), (3, 2), (2, 2), (3, 3)]]
    batch = ordinary[:3] + wrong[:1] + ordinary[3:5] + wrong[1:] + ordinary[5:]
    seen = _count_primes(monkeypatch)
    got = qq_rref(batch)
    for m, rref in zip(batch, got):
        assert_scaled_rref(m, rref)
    # one stack per bucket at the first prime, (2, 2), (2, 4), (4, 2) and
    # (4, 4), then the two blocks alone: one more prime and at least two
    assert seen.count(p) == 4 and len(seen) >= 4 + 1 + 2


def test_mat_mod_is_exact_past_int64():
    # numpy reads the first matrix as float64 and the second as objects; the
    # residues must be exact either way
    for rows in ([[-1, 2 ** 63 + 1], [5, 3]], [[2 ** 64 + 5, -(2 ** 70)]]):
        for p in (7, DEFAULT_PRIME):
            assert mat_mod(rows, p).tolist() == [[x % p for x in row] for row in rows]


def test_mat_mod_reads_integer_floats_exactly():
    from crpencils.pencils import build_gl_pencil, build_spin_pencil

    for pencil in (build_gl_pencil((2,), (2, 1), 3), build_spin_pencil(5)):
        for p in (3, 101, DEFAULT_PRIME):
            stacked = pencil.coeff_array_modp(p)
            assert stacked.dtype == np.float64
            flat = stacked.reshape(pencil.nvars, -1)
            assert mat_mod(flat, p).tolist() == mat_mod(flat.astype(np.int64), p).tolist()
    # a float that is not an integer still reads exactly, as a rational
    assert mat_mod(np.array([[0.5, -3.0]]), 7).tolist() == [[4, 4]]


def _integer_rows_through_fraction(rows):
    """integer_rows as it was before it read numerators directly: every
    entry of a row that is not all int went through Fraction."""
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        den = lcm(1, *(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


_entries = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=12),
    st.integers(-50, 50).map(np.int64),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_entries, max_size=6), max_size=4))
def test_integer_rows_is_unchanged_on_ints_fractions_and_mixed_rows(rows):
    got = integer_rows(rows)
    want = _integer_rows_through_fraction(rows)
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


def test_integer_rows_of_int_valued_fractions_are_their_numerators():
    rows = [[Fraction(3), Fraction(-4), 0], [Fraction(1, 2), 2, Fraction(2, 3)]]
    assert integer_rows(rows) == [[3, -4, 0], [3, 12, 4]]
