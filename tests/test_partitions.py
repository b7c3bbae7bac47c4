import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpencils.partitions import (
    BoxPosition,
    GroupSpec,
    conjugate,
    family_sizes,
    gl_dim,
    hook_family_rank,
    horizontal_strips,
    normalize,
    pieri_add,
    size,
    so_module_dim,
    sp_module_dim,
    weyl_dim,
)
from crpencils.pencils import _dim_floor

from word_oracles import contains, weyl_dim_fractions


def partitions_of(n, max_rows=None):
    """All partitions of n, brute force."""
    if max_rows is None:
        max_rows = n
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if len(acc) == max_rows:
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return out


small_partitions = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(partitions_of(n) or [()])
)


class TestBasics:
    def test_normalize(self):
        assert normalize((3, 1, 0, 0)) == (3, 1)
        assert normalize(()) == ()

    def test_conjugate(self):
        assert conjugate((3, 2)) == (2, 2, 1)
        assert conjugate(()) == ()

    @given(small_partitions)
    def test_conjugate_involution(self, mu):
        assert conjugate(conjugate(mu)) == mu

    def test_contains(self):
        assert contains((3, 2), (2, 2))
        assert not contains((3, 2), (1, 1, 1))


class TestPieri:
    def test_row_shape(self):
        assert pieri_add((2,), 3) == [
            ((3,), BoxPosition(1, 3)),
            ((2, 1), BoxPosition(2, 1)),
        ]

    def test_row_limit(self):
        assert pieri_add((2,), 1) == [((3,), BoxPosition(1, 3))]

    @given(small_partitions, st.integers(1, 5))
    def test_boxes_are_consistent(self, mu, max_rows):
        for nu, box in pieri_add(mu, max_rows):
            assert size(nu) == size(mu) + 1
            assert contains(nu, mu)
            assert len(nu) <= max_rows
            r = box.row - 1
            assert nu[r] == box.col
            assert (mu[r] if r < len(mu) else 0) == box.col - 1

    @given(small_partitions, st.integers(1, 5))
    def test_all_additions_found(self, mu, max_rows):
        got = {nu for nu, _ in pieri_add(mu, max_rows)}
        expect = {
            lam
            for lam in partitions_of(size(mu) + 1, max_rows)
            if contains(lam, mu)
        }
        assert got == expect


class TestHorizontalStrips:
    def test_anchor(self):
        assert set(horizontal_strips((2, 2), 2)) == {(2,)}
        assert set(horizontal_strips((2, 1), 1)) == {(2,), (1, 1)}

    @given(small_partitions, st.integers(0, 4))
    def test_strip_condition(self, mu, k):
        if k > size(mu):
            with pytest.raises(ValueError):
                horizontal_strips(mu, k)
            return
        for alpha in horizontal_strips(mu, k):
            assert size(alpha) == size(mu) - k
            padded = list(alpha) + [0] * (len(mu) - len(alpha))
            for i in range(len(mu)):
                lo = mu[i + 1] if i + 1 < len(mu) else 0
                assert lo <= padded[i] <= mu[i]

    @given(small_partitions, st.integers(0, 4))
    def test_matches_brute_force(self, mu, k):
        if k > size(mu):
            return
        got = set(horizontal_strips(mu, k))
        expect = set()
        for alpha in partitions_of(size(mu) - k) or [()]:
            if not contains(mu, alpha):
                continue
            # skew mu/alpha has at most one box per column iff
            # alpha_i >= mu_{i+1}
            pa = list(alpha) + [0] * (len(mu) - len(alpha))
            if all(pa[i] >= mu[i + 1] for i in range(len(mu) - 1)):
                expect.add(alpha)
        assert got == expect


def hook_content_dim(lam, n):
    """dim S_lam(C^n) as the product over boxes of (n + content) / hook,
    quadratic in |lam|.  Kept here as the oracle of gl_dim."""
    conj = conjugate(lam)
    num, den = 1, 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


class TestGLDim:
    def test_long_row_is_immediate(self):
        assert gl_dim((10 ** 6,), 3) == math.comb(10 ** 6 + 2, 2)

    @given(st.lists(st.integers(0, 9), max_size=6), st.integers(1, 8))
    def test_matches_hook_content(self, parts, n):
        lam = normalize(sorted(parts, reverse=True))
        want = hook_content_dim(lam, n) if len(lam) <= n else 0
        assert gl_dim(lam, n) == want

    def test_anchors(self):
        assert gl_dim((2,), 3) == 6
        assert gl_dim((2, 1), 3) == 8
        assert gl_dim((2, 1), 4) == 20
        assert gl_dim((2, 1, 1), 4) == 15
        assert gl_dim((2, 1, 1), 6) == 105
        assert gl_dim((2, 1, 1, 1), 6) == 84
        assert gl_dim((3, 1, 1), 5) == 126
        assert gl_dim((3, 2, 1), 5) == 280
        assert gl_dim((3, 1, 1), 6) == 336
        assert gl_dim((3, 2, 1), 6) == 896
        assert gl_dim((2, 2, 2, 2, 2), 10) == 19404
        assert gl_dim((2, 2, 2, 2, 2, 1, 1), 10) == 20790

    def test_negative_weight_shift(self):
        assert gl_dim((3, 1, 0), 3) == 15
        assert gl_dim((2, 0, -1), 3) == gl_dim((3, 1, 0), 3)
        assert gl_dim((1, 0, 0, -1), 4) == 15  # adjoint of sl4 plus trace... sl4 part

    def test_too_many_rows(self):
        assert gl_dim((1, 1, 1, 1), 3) == 0

    def test_a_negative_weight_has_n_entries(self):
        # (1, -1) in n = 5 was padded to (2, 0, 1, 1, 1), no partition, and
        # at n = 2^20 the product then ran over 2^20 rows
        with pytest.raises(ValueError, match="exactly n entries"):
            gl_dim((1, -1), 5)

    @given(small_partitions, st.integers(1, 5))
    def test_matches_weyl(self, lam, n):
        if len(lam) > n:
            return
        assert gl_dim(lam, n) == weyl_dim(GroupSpec("GL", n), lam)

    @given(small_partitions, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_branching_identity(self, mu, n):
        # restriction GL(n+1) -> GL(n): dim S_mu(C^{n+1})
        # = sum over horizontal strips removed of dim of the smaller module
        total = 0
        for k in range(size(mu) + 1):
            for alpha in horizontal_strips(mu, k):
                total += gl_dim(alpha, n)
        assert total == gl_dim(mu, n + 1)


# GL, C (Sp), B (odd SO) and D (even SO, Spin) groups, each with a weight of
# up to one entry past its rank: a dominant one, an all-odd one (doubled,
# the half-spin weights) or an arbitrary one
groups = st.one_of(
    st.integers(1, 5).map(lambda n: GroupSpec("GL", n)),
    st.integers(1, 4).map(lambda n: GroupSpec("Sp", 2 * n)),
    st.integers(2, 9).map(lambda m: GroupSpec("SO", m)),
    st.integers(1, 4).map(lambda n: GroupSpec("Spin", 2 * n)),
)


def _weights(rank):
    lists = st.lists(st.integers(-3, 6), max_size=rank + 1)
    odd = st.lists(st.integers(0, 3), min_size=1, max_size=rank + 1).flatmap(
        lambda w: st.sampled_from([1, -1]).map(
            lambda sign: [2 * x + 1 for x in sorted(w, reverse=True)][:-1]
            + [sign * (2 * min(w) + 1)]))
    return st.one_of(lists.map(lambda w: sorted(w, reverse=True)), odd, lists)


group_weights = groups.flatmap(lambda g: st.tuples(st.just(g), _weights(g.rank)))


def _weyl_outcome(formula, group, weight, doubled):
    """The dimension, or the type and message of the refusal."""
    try:
        return formula(group, weight, doubled)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestWeylDim:
    def test_sp_anchors(self):
        assert weyl_dim(GroupSpec("Sp", 6), (1, 1)) == 14
        assert weyl_dim(GroupSpec("Sp", 4), (1, 1)) == 5
        assert weyl_dim(GroupSpec("Sp", 6), (1,)) == 6
        assert weyl_dim(GroupSpec("Sp", 6), (2,)) == 21

    def test_so_odd_anchors(self):
        assert weyl_dim(GroupSpec("SO", 5), (1,)) == 5
        assert weyl_dim(GroupSpec("SO", 5), (1, 1)) == 10  # adjoint so5
        assert weyl_dim(GroupSpec("SO", 7), (1, 1, 1)) == 35

    def test_so_even_anchors(self):
        assert weyl_dim(GroupSpec("SO", 6), (1,)) == 6
        assert weyl_dim(GroupSpec("SO", 6), (1, 1)) == 15  # adjoint so6
        assert weyl_dim(GroupSpec("SO", 6), (3, 2, 1)) == 256
        assert weyl_dim(GroupSpec("SO", 6), (3, 2, -1)) == 256
        # a full first column splits the O(6) module; each half is 126
        assert weyl_dim(GroupSpec("SO", 6), (3, 1, 1)) == 126

    def test_spin_anchors(self):
        # half-spin modules of Spin(10) are 16-dimensional
        g = GroupSpec("Spin", 10)
        assert weyl_dim(g, (1, 1, 1, 1, 1), doubled=True) == 16
        assert weyl_dim(g, (1, 1, 1, 1, -1), doubled=True) == 16
        # spin module of Spin(2n) has dim 2^n via B-type... check Spin(8)
        assert weyl_dim(GroupSpec("Spin", 8), (1, 1, 1, 1), doubled=True) == 8

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weyl_dim(GroupSpec("Sp", 4), (1, 2))
        with pytest.raises(ValueError):
            weyl_dim(GroupSpec("Sp", 4), (1, -1))
        with pytest.raises(ValueError):
            weyl_dim(GroupSpec("SO", 6), (1, -2, 1))

    @given(small_partitions)
    def test_gl_agreement(self, lam):
        n = max(4, len(lam))
        assert weyl_dim(GroupSpec("GL", n), lam) == gl_dim(lam, n)

    @given(group_weights, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_integer_formula_matches_the_fraction_one(self, group_weight, doubled):
        group, weight = group_weight
        assert _weyl_outcome(weyl_dim, group, weight, doubled) == _weyl_outcome(
            weyl_dim_fractions, group, weight, doubled)

    @pytest.mark.parametrize("group,weight,doubled,refusal", [
        (GroupSpec("GL", 2), (1, 2, 3), False, ValueError),  # longer than the rank
        (GroupSpec("GL", 3), (1,), True, ValueError),  # half-integral
        (GroupSpec("GL", 3), (1, 2), False, ValueError),  # not dominant
        (GroupSpec("Sp", 4), (1, 1), True, ValueError),  # half-integral
        (GroupSpec("SO", 5), (1, 0), True, ArithmeticError),  # (1/2, 0) in B2
        (GroupSpec("SO", 4), (1, 0), True, ArithmeticError),  # (1/2, 0) in D2
        (GroupSpec("SO", 6), (1, 1, 3), True, ValueError),  # not dominant for D3
        (GroupSpec("Spin", 8), (1, 1, 1, 1, 1), True, ValueError),  # longer than the rank
    ])
    def test_refusals_match_the_fraction_formula(self, group, weight, doubled, refusal):
        with pytest.raises(refusal):
            weyl_dim(group, weight, doubled)
        assert _weyl_outcome(weyl_dim, group, weight, doubled) == _weyl_outcome(
            weyl_dim_fractions, group, weight, doubled)


class TestModuleDims:
    def test_sp(self):
        assert sp_module_dim((1, 1), 6) == 14
        assert sp_module_dim((1, 1, 1, 1), 6) == 0

    def test_so_anchors(self):
        assert so_module_dim((3, 1, 1), 5) == 81
        assert so_module_dim((3, 2, 1), 5) == 105
        assert so_module_dim((3, 1, 1), 6) == 252
        assert so_module_dim((3, 2, 1), 6) == 512
        assert so_module_dim((2,), 5) == 14
        assert so_module_dim((2, 1), 5) == 35

    def test_so_associated_partition(self):
        # first column longer than m/2: transpose down to the associated shape
        assert so_module_dim((1, 1, 1, 1), 5) == so_module_dim((1,), 5)
        assert so_module_dim((1, 1, 1, 1, 1, 1), 5) == 0

    def test_so_traceless_decomposition(self):
        # S^2(C^m) = S_[2] + trivial
        for m in (3, 4, 5, 6, 7):
            assert so_module_dim((2,), m) == gl_dim((2,), m) - 1
        # C^m x C^m = S_[2] + S_[11] + trivial
        for m in (4, 5, 6):
            assert (
                so_module_dim((2,), m) + so_module_dim((1, 1), m) + 1
                == m * m
            )


class TestFamilySizes:
    def test_gl_2_21(self):
        assert family_sizes("GL_2_21", n=2) == (6, 8, 5)
        src, tgt, r = family_sizes("GL_2_21", n=3)
        assert (src, tgt) == (gl_dim((2,), 4), gl_dim((2, 1), 4))
        assert r == 9

    def test_gl_22_221(self):
        assert family_sizes("GL_22_221", n=3) == (20, 20, 14)
        src, tgt, r = family_sizes("GL_22_221", n=4)
        assert (src, tgt) == (gl_dim((2, 2), 5), gl_dim((2, 2, 1), 5))

    def test_gl_hook(self):
        # the (2, 1^b) -> (2, 1^(b+1)) hook family in n + 1 variables
        assert (gl_dim((2, 1), 4), gl_dim((2, 1, 1), 4), hook_family_rank(3, 1)) == (20, 15, 11)
        assert (gl_dim((2,), 3), gl_dim((2, 1), 3), hook_family_rank(2, 0)) == (6, 8, 5)

    def test_hook_rank_consistency(self):
        # b=0 reduces to the (2)->(2,1) family rank n(n+3)/2
        for n in range(1, 8):
            assert hook_family_rank(n, 0) == (n * n + 3 * n) // 2

    def test_hook_rank_summand_identity(self):
        # rank = dim Lambda^{b+1} C^n + dim S_{(2,1^b)} C^n
        for n in range(2, 8):
            for b in range(0, n):
                expect = gl_dim((1,) * (b + 1), n) + gl_dim((2,) + (1,) * b, n)
                assert hook_family_rank(n, b) == expect

    def test_so_2_21(self):
        assert family_sizes("SO_2_21", m=3) == (5, 5, 4)
        src, tgt, r = family_sizes("SO_2_21", m=5)
        assert src == so_module_dim((2,), 5)
        assert tgt == so_module_dim((2, 1), 5)
        assert r == src - 1

    def test_so_311_321(self):
        assert (so_module_dim((3, 1, 1), 5), so_module_dim((3, 2, 1), 5)) == (81, 105)
        assert (so_module_dim((3, 1, 1), 6), so_module_dim((3, 2, 1), 6)) == (252, 512)

    def test_unknown(self):
        with pytest.raises(ValueError):
            family_sizes("nope")


@pytest.mark.parametrize("kind, dim, dims", [
    ("gl", gl_dim, range(10)), ("sp", sp_module_dim, range(2, 10, 2)),
    ("so", so_module_dim, range(2, 10))])
def test_dimension_floor_bounds_every_small_module(kind, dim, dims):
    # a lower bound that is 0 exactly for the zero modules
    for n in dims:
        for k in range(8):
            for lam in partitions_of(k):
                floor, want = _dim_floor(kind, lam, n), dim(lam, n)
                assert floor <= want and (floor == 0) == (want == 0), (lam, n)


def test_weyl_products_multiply_no_factor_that_is_one():
    # over all pairs of rows, sp(1024) took 24 s for (1, 1) and as long for
    # the trivial weight, and a power of det of 1,024 rows about as long
    start = time.perf_counter()
    assert sp_module_dim((), 1024) == 1
    assert sp_module_dim((1,), 1024) == 1024
    assert sp_module_dim((1, 1), 1024) == 1024 * 1023 // 2 - 1
    assert so_module_dim((1,) * 1024, 1024) == 1
    assert so_module_dim((1,), 1024) == 1024
    assert gl_dim((3,) * 1024, 1024) == 1
    assert gl_dim((1,) * 1023, 1024) == 1024
    assert gl_dim((2,) + (1,) * 1023, 1024) == 1024
    assert time.perf_counter() - start < 2


def test_dimension_floor_bounds_gl_weights_with_negative_entries():
    # a weight of n entries is a partition shifted by a power of det
    for n in range(1, 6):
        for shift in range(1, 3):
            for k in range(6):
                for lam in partitions_of(k, max_rows=n):
                    w = tuple(x - shift for x in lam + (0,) * (n - len(lam)))
                    floor, want = _dim_floor("gl", w, n), gl_dim(w, n)
                    assert 0 < floor <= want and want == gl_dim(lam, n), (w, n)
