"""Builder-level anchors: shapes, ranks, equivariance, kernel vectors."""

from dataclasses import replace
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crpencils.analysis import generic_rank
from crpencils.catalog import build_from_params
from crpencils.linalg import DEFAULT_PRIME, qq_rank, reduce_mod
from crpencils.modules import a_vector, gamma_pairing, spin_space
from crpencils.partitions import family_sizes, gl_dim, hook_family_rank
from crpencils.pencils import (
    BuildSpec,
    build_adjoint_pencil,
    build_gl_pencil,
    build_koszul_pencil,
    build_so_pencil,
    build_sp_pencil,
    build_spin_pencil,
    check_equivariance,
    hyperplane_bound_criterion,
    spin_kernel_vector,
    theta_map,
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


@pytest.mark.parametrize("params", EXAMPLES, ids=lambda r: r["kind"])
def test_build_spec_record_round_trip(params):
    spec = build_from_params(params).spec
    assert spec.record() == params
    assert BuildSpec.from_record(spec.record()) == spec
    assert build_from_params(spec.record()).spec == spec


def test_build_spec_rejects_malformed_records():
    for record in ({"kind": "gl", "mu": [2], "nu": [2, 1]},
                   {"kind": "gl", "mu": "2", "nu": [2, 1], "v": 3},
                   {"kind": "gl", "mu": [1, 2], "nu": [2, 1], "v": 3},
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
        delta = {I: Fraction(rng.randint(-5, 5)) for I in basis}
        kv = spin_kernel_vector(delta, 5)
        mat = pen.evaluate([delta[I] for I in basis])
        assert all(
            sum((row[j] * kv[j] for j in range(10)), Fraction(0)) == 0
            for row in mat
        )
        # proportional to the degree-two gamma pairing of delta with itself
        assert [4 * c for c in kv] == a_vector(delta, 5)


def test_gamma_pairing_degree_one_is_vector_valued():
    basis = spin_space(5).even_basis
    delta = {I: Fraction(1) for I in basis}
    comp = gamma_pairing(1, delta, delta, 5)
    assert all(len(w) == 1 for w in comp)


# -- adjoint / induced operator --------------------------------------------


def test_adjoint_a7_shape_and_rank():
    pen = build_adjoint_pencil(7)
    assert (pen.nvars, pen.source_dim, pen.target_dim) == (35, 48, 35)
    assert generic_rank(pen, trials=5, seed=0) == 34


def test_theta_map_small_anchors():
    # r = 0: zero map
    assert theta_map([[0, 0], [0, 0]], (2,), (1,), (1,), (1, 1)) == [
        [Fraction(0)] * 6,
        [Fraction(0)] * 6,
    ]
    X = [[1, 0], [0, 1]]
    mat = theta_map(X, (2,), (1,), (1,), (1, 1))
    assert qq_rank(mat) == 2


def test_hyperplane_criterion_anchor():
    assert hyperplane_bound_criterion((3, 2), (3, 2, 1, 1), 2) == (True, 40)
    assert gl_dim((3, 2), 5) == 175
    assert gl_dim((3, 2, 1, 1), 5) == 175


def test_hyperplane_criterion_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hyperplane_bound_criterion((1, 2), (2, 1), 2)
