"""Concrete module realizations: Schur modules, contraction-kernel modules
for the symplectic and orthogonal groups, and spin representations.

Bilinear forms are taken in split (hyperbolic) coordinates so that basis
letters carry torus weights and all kernel computations decompose into small
weight blocks: for Sp(2n) the form is omega = e1^e2 + e3^e4 + ... (consecutive
pairs); for SO(m) the pairs (e1,e2), (e3,e4), ... are hyperbolic and, for odd
m, the last basis vector is non-isotropic with q(e_m) = 1.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .linalg import coef_dtype, distinct_primitive_rows, max_abs, qq_rref, rref_kernel
from .partitions import (
    GroupSpec,
    Partition,
    check_partition,
    gl_dim,
    size,
    so_module_dim,
    sp_module_dim,
)
from .tensors import (
    PASS_CELLS,
    GradedSpan,
    SparseTensor,
    WordBatch,
    apply_symmetrizer,
    linear_combinations,
    matrix_on_letters,
    perm_sign,
    place_values,
    semistandard_tableaux,
    square_matrix,
    tableau_word,
    tensor_iadd,
)


# ---------------------------------------------------------------------------
# bilinear forms in split coordinates


@dataclass(frozen=True)
class FormSpec:
    """A symplectic or symmetric bilinear form with its split-basis data."""

    kind: str  # "symplectic" | "orthogonal"
    dim: int
    gram: tuple[tuple[int, ...], ...]

    @cached_property
    def partners(self) -> tuple[np.ndarray, np.ndarray]:
        """(partner, value): for each letter a the one letter b = partner[a]
        with B(a, b) != 0, and value[a] = B(a, b)."""
        found = []
        for row in self.gram:
            hits = [(b, x) for b, x in enumerate(row) if x]
            if len(hits) != 1:
                raise AssertionError("form is not in split coordinates")
            found.append(hits[0])
        table = np.array(found, dtype=np.int64).reshape(self.dim, 2)
        table.setflags(write=False)  # every caller shares the cached arrays
        return table[:, 0], table[:, 1]

    def quadratic(self, x: Sequence[int]) -> int:
        """B(x, x) = sum_a x_a B(a, partner[a]) x_partner[a], in Python ints."""
        partner, value = self.partners
        return sum(x[a] * v * x[b]
                   for a, (b, v) in enumerate(zip(partner.tolist(), value.tolist())))

    @cached_property
    def letter_weights(self) -> np.ndarray:
        """The torus weight of each letter, one row per letter: letter 2i has
        e_i, letter 2i+1 has -e_i, and the non-isotropic letter of odd SO(m)
        has 0.  A word's weight is the sum over its letters."""
        w = np.zeros((self.dim, (self.dim + 1) // 2), dtype=np.int64)
        for a in range(self.dim - self.dim % 2):
            w[a, a >> 1] = -1 if a & 1 else 1
        w.setflags(write=False)
        return w

    def dual_tensor(self) -> SparseTensor:
        """The invariant 2-tensor: q-hat = sum q^{ab} e_a x e_b (inverse Gram).
        In split coordinates G is a signed permutation, so G^-1 = G^T: row a
        holds B(b, a) at b = partner[a]."""
        partner, value = self.partners
        if not np.isin(value, (-1, 1)).all():
            raise AssertionError("the Gram matrix is not a signed permutation")
        value = value.tolist()
        return {(a, b): value[b] for a, b in enumerate(partner.tolist())}


@lru_cache(maxsize=None)
def symplectic_form(two_n: int) -> FormSpec:
    if two_n % 2:
        raise ValueError("symplectic form needs even dimension")
    # omega(e_2k, e_2k+1) = 1 = -omega(e_2k+1, e_2k)
    gram = square_matrix(two_n, {(a, a ^ 1): -1 if a & 1 else 1 for a in range(two_n)})
    return FormSpec("symplectic", two_n, gram)


@lru_cache(maxsize=None)
def orthogonal_form(m: int) -> FormSpec:
    # hyperbolic pairs (e_2k, e_2k+1), and q(e_m) = 1 for odd m
    pairs = {(a, a ^ 1): 1 for a in range(m - m % 2)}
    return FormSpec("orthogonal", m, square_matrix(m, {**pairs, (m - 1, m - 1): m % 2}))


def _root_vector(form: FormSpec, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """The X preserving the form (X^T G + G X = 0) with X e_a = e_b that
    is zero off e_a and e_partner[b]: E_ba - (value[b] / value[a]) E_pa,pb,
    with p the partner, or E_ba alone when b is a's partner (sp only).  It
    has weight wt(b) - wt(a).  The values are +-1 in split coordinates."""
    partner, value = form.partners
    entries = {(b, a): 1}
    if b != partner[a]:
        entries[int(partner[a]), int(partner[b])] = -int(value[b] * value[a])
    return square_matrix(form.dim, entries)


def form_lie_generators(form: FormSpec) -> list[tuple[tuple[int, ...], ...]]:
    """Generators of the Lie algebra g preserving the form, as a Lie
    algebra: the root vectors of the simple roots and of their negatives,
    2 rank(g) of them (Humphreys, Introduction to Lie Algebras and
    Representation Theory, section 18), a positive one and its negative in
    turn.

    Letter 2i has weight e_i and letter 2i+1 has -e_i (letter_weights), so
    e_i - e_(i+1), i < n - 1, moves letter 2i+2 to 2i.  The last simple
    root is 2 e_(n-1) for sp_2n (letter 2n-1 to 2n-2), e_(n-2) + e_(n-1)
    for so_2n (2n-1 to 2n-4) and e_(n-1) for so_2n+1 (the non-isotropic
    letter 2n to 2n-2).  so_2 is abelian, with no roots: its one basis
    element E_00 - E_11 generates it."""
    n, odd = divmod(form.dim, 2)
    if form.kind == "orthogonal" and form.dim == 2:
        return [_root_vector(form, 0, 0)]
    if form.kind == "symplectic":
        last = (2 * n - 1, 2 * n - 2)
    elif odd:
        last = (2 * n, 2 * n - 2)
    else:
        last = (2 * n - 1, 2 * n - 4)
    simple = [(2 * i + 2, 2 * i) for i in range(n - 1)] + [last]
    return [_root_vector(form, *ab) for a, b in simple for ab in ((a, b), (b, a))]


def contractions(b: WordBatch, form: FormSpec) -> WordBatch:
    """Tensor i * P + p of the result is tensor i of the batch contracted
    with the form over the p-th of its P slot pairs s1 < s2, in
    combinations order (no tensor below two slots).

    B(a, c) is nonzero only at c = partner[a], so a term adds x B(a,
    partner[a]) to the word without slots s1 and s2 exactly when its letter
    at s2 is the partner of its letter a at s1.  The terms of whole tensors
    are expanded over the pairs at most PASS_CELLS at a time, and summed by
    one sort."""
    pairs = list(combinations(range(b.degree), 2))
    partner, value = form.partners
    # an output word takes at most one term from each letter a at s1
    b = replace(b, coef=b.coef.astype(coef_dtype(max_abs(b.coef) * max_abs(value) * b.radix)))
    degree = max(b.degree - 2, 0)
    pw = place_values(b.radix, degree)
    parts = [(b.idx[:0], b.code[:0], b.coef[:0])]
    for first, part in b.chunks(PASS_CELLS // max(len(pairs), 1)):
        letters = part.letters()
        for p, (s1, s2) in enumerate(pairs):
            hit = np.flatnonzero(partner[letters[:, s1]] == letters[:, s2])
            parts.append(((part.idx[hit] + first) * len(pairs) + p,
                          np.delete(letters[hit], (s1, s2), axis=1) @ pw,
                          part.coef[hit] * value[letters[hit, s1]]))
    return WordBatch.build(b.n * len(pairs), degree, b.radix, *map(np.concatenate, zip(*parts)))


# ---------------------------------------------------------------------------
# realized modules


@dataclass
class RealizedModule:
    group: GroupSpec
    weight: Partition
    degree: int
    span: GradedSpan
    form: Optional[FormSpec] = None

    @property
    def dim(self) -> int:
        return self.span.dim


@lru_cache(maxsize=None)
def schur_module(lam: Partition, v: int) -> RealizedModule:
    """S_lam(C^v) inside V^{tensor |lam|}, basis graded by word content."""
    lam = check_partition(lam)
    if len(lam) > v:
        raise ValueError(f"{lam} has more than {v} rows")
    words = [{tableau_word(t): 1} for t in semistandard_tableaux(lam, v)]
    span = GradedSpan.from_tensors(
        apply_symmetrizer(WordBatch.from_tensors(words, size(lam), v), lam),
        np.eye(v, dtype=np.int64))
    expected = gl_dim(lam, v)
    if span.dim != expected:
        raise AssertionError(f"S_{lam}(C^{v}): got dim {span.dim}, expected {expected}")
    return RealizedModule(GroupSpec("GL", v), lam, size(lam), span)


def _form_module(lam: Partition, form: FormSpec, group: GroupSpec, expected: int) -> RealizedModule:
    """The joint kernel of the contractions with the form on S_lam(V), taken
    directly on the tensors c_lam e_T (T semistandard) of each torus weight,
    which span that weight block of S_lam(V): every word of c_lam e_T is an
    arrangement of T's letters.  Row (p, w) and column j of a block's
    constraint matrix hold contraction p of its tensor j at the word w; the
    rows that repeat another up to a scalar are dropped, every block's RREF
    comes from one qq_rref call and its kernel is read off by rref_kernel.
    The span's RREF, of the kept tensors, makes the basis canonical."""
    lam = check_partition(lam)
    d = size(lam)
    words = [tableau_word(tab) for tab in semistandard_tableaux(lam, form.dim)]
    weights = form.letter_weights[np.array(words, dtype=np.int64).reshape(len(words), d)]
    keys = list(map(tuple, weights.sum(axis=1).tolist()))
    # the tableaux by weight, so that each weight block is a range of the batch
    order = sorted(range(len(words)), key=keys.__getitem__)
    bounds = np.array([0] + [i for i in range(1, len(order))
                             if keys[order[i]] != keys[order[i - 1]]] + [len(order)])
    b = apply_symmetrizer(WordBatch.from_tensors([{words[j]: 1} for j in order], d, form.dim),
                          lam)
    c = contractions(b, form)
    pairs = max(d * (d - 1) // 2, 1)  # below two slots c holds no term
    j, p = np.divmod(c.idx, pairs)
    # the rows (p, w) of all blocks, numbered block by block
    ncodes = form.dim ** c.degree
    block = np.searchsorted(bounds, j, "right") - 1
    row_keys, row = np.unique((block * pairs + p) * ncodes + c.code, return_inverse=True)
    row_lo = np.searchsorted(row_keys // (pairs * ncodes), np.arange(len(bounds)))
    # every block's constraint matrix in one flat array, block after block
    nrows, width = np.diff(row_lo), np.diff(bounds)
    cell_lo = np.concatenate([[0], np.cumsum(nrows * width)])
    flat = np.zeros(cell_lo[-1], dtype=c.coef.dtype)
    flat[cell_lo[block] + (row - row_lo[block]) * width[block] + j - bounds[block]] = c.coef
    rrefs = qq_rref([distinct_primitive_rows(flat[lo : lo + n * w].reshape(n, w))
                     for lo, n, w in zip(cell_lo.tolist(), nrows.tolist(), width.tolist())])
    # each kernel vector as a one-letter tensor over the tensor indices
    kernel, nker = [(np.zeros(0, dtype=np.int64),) * 3], 0
    for lo, w, rref in zip(bounds.tolist(), width.tolist(), rrefs):
        ker = rref_kernel(*rref, w)
        k, col = np.nonzero(ker)
        kernel.append((nker + k, lo + col, ker[k, col]))
        nker += len(ker)
    kept = linear_combinations(b, WordBatch(nker, 1, b.n, *map(np.concatenate, zip(*kernel))))
    span = GradedSpan.from_tensors(kept, form.letter_weights)
    if span.dim != expected:
        raise AssertionError(
            f"{group.family} module {lam}: got dim {span.dim}, expected {expected}"
        )
    return RealizedModule(group, lam, d, span, form)


@lru_cache(maxsize=None)
def symplectic_module(lam: Partition, two_n: int) -> RealizedModule:
    lam = check_partition(lam)
    if len(lam) > two_n // 2:
        raise ValueError(f"{lam} has more than n rows for Sp({two_n})")
    return _form_module(
        lam, symplectic_form(two_n), GroupSpec("Sp", two_n), sp_module_dim(lam, two_n)
    )


@lru_cache(maxsize=None)
def orthogonal_module(lam: Partition, m: int) -> RealizedModule:
    lam = check_partition(lam)
    expected = so_module_dim(lam, m)
    if expected == 0:
        raise ValueError(f"{lam} is out of range for SO({m})")
    return _form_module(lam, orthogonal_form(m), GroupSpec("SO", m), expected)


def lie_action(xs: Sequence[Sequence[Sequence[int]]], batch: WordBatch) -> WordBatch:
    """Derivation action of each integer gl element X_g on each tensor of a
    batch: tensor i * len(xs) + g of the result is X_g on tensor i."""
    return matrix_on_letters(xs, batch)


# ---------------------------------------------------------------------------
# spin representations on the exterior algebra of a maximal isotropic E

Spinor = dict  # sorted tuple of indices in range(n) -> int


def spin_basis(n: int, parity: int) -> list[tuple[int, ...]]:
    """Subsets of {0..n-1} with |I| = parity mod 2, ordered by (size, lex)."""
    out = [
        tuple(c)
        for k in range(parity % 2, n + 1, 2)
        for c in combinations(range(n), k)
    ]
    return out


@dataclass
class SpinSpace:
    n: int
    even_basis: list[tuple[int, ...]]
    odd_basis: list[tuple[int, ...]]


def spin_space(n: int) -> SpinSpace:
    if n < 2:
        raise ValueError("need n >= 2")
    return SpinSpace(n, spin_basis(n, 0), spin_basis(n, 1))


def wedge_e(i: int, s: Spinor) -> Spinor:
    """e_i ^ s: i joins each index set without it, with the sign (-1)^(its
    position); distinct index sets stay distinct, so nothing accumulates."""
    out: Spinor = {}
    for idx, c in s.items():
        if i not in idx and c:
            pos = bisect_left(idx, i)
            out[idx[:pos] + (i,) + idx[pos:]] = -c if pos % 2 else c
    return out


def contract_f(i: int, s: Spinor) -> Spinor:
    """f_i -| s: i leaves each index set holding it, with the sign (-1)^(its
    position); distinct index sets stay distinct, so nothing accumulates."""
    out: Spinor = {}
    for idx, c in s.items():
        if i in idx and c:
            pos = idx.index(i)
            out[idx[:pos] + idx[pos + 1 :]] = -c if pos % 2 else c
    return out


def wedge(s: Spinor, t: Spinor) -> Spinor:
    """s ^ t of sparse forms {sorted index tuple: coefficient}: e_I ^ t is
    e_i1 ^ (e_i2 ^ (... ^ t)) for I = (i1 < i2 < ...)."""
    out: Spinor = {}
    for idx, c in s.items():
        if c:
            acted = t
            for i in reversed(idx):
                acted = wedge_e(i, acted)
            tensor_iadd(out, acted, c)
    return out


def clifford_unit(j: int, s: Spinor, n: int) -> Spinor:
    """w_j . s for the j-th basis vector of W: e_j for j < n, else f_{j-n}."""
    return wedge_e(j, s) if j < n else contract_f(j - n, s)


@lru_cache(maxsize=None)
def complement_sign(idx: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """(comp, sign): the indices of range(n) outside idx, and the sign of
    the permutation sorting idx followed by comp."""
    comp = tuple(x for x in range(n) if x not in idx)
    return comp, perm_sign(idx + comp)


def beta_pairing(s: Spinor, t: Spinor, n: int) -> int:
    """Canonical spinor pairing: coefficient of e_1^...^e_n in s ^ rev(t)."""
    total = 0
    for idx, c in s.items():
        comp, sign = complement_sign(idx, n)
        x = t.get(comp)
        if x:
            # the shuffle sign of idx followed by comp, times the sign of
            # reversing comp
            k = len(comp)
            total += sign * (-1) ** (k * (k - 1) // 2) * c * x
    return total


def exp_two_form(d2: dict) -> Spinor:
    """exp(delta2) . 1 = sum_k delta2^k / k! (wedge powers) for an integer
    two-form {sorted pair: coefficient}: a pure spinor for every n.  The
    coefficients of delta2^k / k! are Pfaffians, so each power divides
    exactly.  The sum stops once a power vanishes, at k = n // 2 + 1 at the
    latest."""
    out: Spinor = {(): 1}
    term, k = out, 0
    while term:
        k += 1
        term = {I: c // k for I, c in wedge(d2, term).items()}
        out.update(term)
    return out


def gamma_pairing(s: Spinor, t: Spinor, n: int) -> dict[int, int]:
    """The nonzero beta(w_j . s, t) by index j into the W basis
    (e_0..e_{n-1}, f_0..f_{n-1})."""
    out: dict[int, int] = {}
    for j in range(2 * n):
        val = beta_pairing(clifford_unit(j, s, n), t, n)
        if val:
            out[j] = val
    return out


def a_vector(delta: Spinor, n: int) -> list[int]:
    """The equivariant quadratic map Sym^2(Delta+) -> W evaluated at delta.

    gamma_pairing(delta, delta) yields the covector w -> beta(w.delta,
    delta); identifying W^* with W through the polarized form B (the B-dual
    of e_j is 2 f_j and vice versa) gives a genuine vector of W, which spans
    Ker(psi_delta) whenever that kernel is a line.
    """
    out = [0] * (2 * n)
    for j, c in gamma_pairing(delta, delta, n).items():
        out[(j + n) % (2 * n)] = 2 * c
    return out


def spin_lie_generators(n: int) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of the F_ab = [w_a, w_b]/4 that generate
    so(2n) as a Lie algebra, n >= 2: the root vectors of the simple roots of
    D_n and of their negatives, 2n of them, a positive one and its negative
    in turn.  With e_i of weight e_i and f_i of -e_i, F_ab has the weight
    wt(w_a) + wt(w_b): e_i - e_(i+1) is (i, n + i + 1), and the last simple
    root e_(n-2) + e_(n-1) is (n - 2, n - 1)."""
    pairs = [((i, n + i + 1), (i + 1, n + i)) for i in range(n - 1)]
    pairs.append(((n - 2, n - 1), (2 * n - 2, 2 * n - 1)))
    return [ab for pair in pairs for ab in pair]


def spin_lie_action(a: int, b: int, s: Spinor, n: int) -> Spinor:
    """4 F_ab . s = (w_a w_b - w_b w_a) . s, in integers."""
    out: Spinor = {}
    tensor_iadd(out, clifford_unit(a, clifford_unit(b, s, n), n))
    tensor_iadd(out, clifford_unit(b, clifford_unit(a, s, n), n), -1)
    return out


def spin_lie_on_w(a: int, b: int, n: int) -> list[list[int]]:
    """Matrix of 2 [F_ab, -] on W, in integers: [F_ab, w] = B(w_b,w) w_a -
    B(w_a,w) w_b, and the polarized form B pairs e_i with f_i to 1/2 and
    is zero on every other pair of basis vectors."""
    dim = 2 * n
    m = [[0] * dim for _ in range(dim)]
    m[a][(b + n) % dim] += 1
    m[b][(a + n) % dim] -= 1
    return m
