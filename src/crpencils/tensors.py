"""Sparse tensors on word bases, batched Young symmetrizers, and graded spans.

A tensor in V^{tensor d} is a dict mapping words (tuples of 0-based letters)
to int coefficients.  Permutations act on slots: (sigma . w) puts
the letter from slot i into slot sigma[i].

Young symmetrizers act on a WordBatch: many integer tensors of one degree,
held as numpy arrays of (tensor index, word code, coefficient) sorted by
tensor and code, where the code of a word reads its letters as base-radix
digits.  c_lam = b_lam a_lam is applied factored, one symmetrizing pass per
row and one antisymmetrizing pass per column of the diagram.  A pass over
k slots drops the words with a letter repeated in an antisymmetrized column
and runs k - 1 coset passes, of 2, 3, ..., k moves; each expands whole
tensors at a time, at most PASS_CELLS terms at once, and sums equal words
with a stable sort and np.add.reduceat, so a pass holds distinct
arrangements, never k! terms of a word.  Coefficients follow the int64 or
object rule of linalg.coef_dtype, so integer tensors stay exact.  On the
image of c_lam the adjoint is the row passes times a scalar
(symmetrize_rows).

GradedSpan holds a canonical (per-block RREF) basis of the span of a batch
of tensors that are homogeneous for some grading of words (content, or
torus weight), as that basis scaled to primitive integer tensors: the
(u, s, pivots) that one batched qq_rref call returns for the blocks' dense
integer matrices, with no per-word dict.  The span reads the coordinates
of a whole batch at once, as the values at the pivot words, and checks
membership in integers.

Sparse maps leave this module as COO arrays, one array per index and one of
values, never a dict per entry: GradedSpan.coordinates gives (image,
coordinate, value) terms, which pencils joins with matches and sums with
sum_by_key.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterator, Optional, Sequence

import numpy as np

from .linalg import coef_dtype, int_array, max_abs, qq_rref
from .partitions import Partition, check_partition, conjugate

Word = tuple[int, ...]
SparseTensor = dict  # Word -> int

PASS_CELLS = 1 << 15  # expanded terms a coset pass holds at once


def tensor_iadd(acc: SparseTensor, t: SparseTensor, c=1) -> SparseTensor:
    for w, x in t.items():
        v = acc.get(w, 0) + c * x
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)
    return acc


def perm_sign(seq: Sequence) -> int:
    """(-1)^(number of inversions): the sign of the permutation sorting seq."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def row_major_cells(lam: Partition) -> list[tuple[int, int]]:
    """Cells of the diagram in row-major order, 0-based (row, col)."""
    return [(i, j) for i, r in enumerate(lam) for j in range(r)]


def cell_slot(lam: Partition, row: int, col: int) -> int:
    """Slot index of a 0-based cell in the row-major word layout."""
    return row_major_cells(lam).index((row, col))


@lru_cache(maxsize=None)
def _young_groups(lam: Partition) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Slots of the rows and of the columns of length > 1, cells row-major."""
    slot = {c: i for i, c in enumerate(row_major_cells(lam))}
    rows = tuple(tuple(slot[i, j] for j in range(r)) for i, r in enumerate(lam) if r > 1)
    cols = tuple(tuple(slot[i, j] for i in range(h))
                 for j, h in enumerate(conjugate(lam)) if h > 1)
    return rows, cols


def place_values(radix: int, degree: int) -> np.ndarray:
    """radix^(degree - 1 - s) for each slot s: word codes are letters @ this."""
    return radix ** np.arange(degree - 1, -1, -1, dtype=np.int64)


def sum_by_key(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys in increasing order, the sum of val over each),
    zero sums dropped: a stable sort and np.add.reduceat."""
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    if len(key):
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key, val = key[starts], np.add.reduceat(val, starts)
        live = val != 0
        key, val = key[live], val[live]
    return key, val


def _summed(idx: np.ndarray, code: np.ndarray, coef: np.ndarray, size: int):
    """(idx, code, coef) sorted by tensor and word, equal words summed and
    zero sums dropped; every code is below size."""
    key, coef = sum_by_key(idx * size + code, coef)
    return key // size, key % size, coef


def ragged(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): count[i] entries with owner i and at = start[i],
    start[i] + 1, ..., for each i in turn."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + np.repeat(start - np.cumsum(count) + count, count)


def matches(ordered: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): every pair with keys[owner] == ordered[at], ordered
    sorted, for each key in turn."""
    lo = np.searchsorted(ordered, keys)
    return ragged(lo, np.searchsorted(ordered, keys, "right") - lo)


@dataclass(frozen=True)
class WordBatch:
    """n integer tensors of one degree over the letters 0 .. radix - 1, as
    their nonzero terms sorted by (tensor index, word code).  The code of a
    word reads its letters as base-radix digits, the first slot the most
    significant, so codes sort as words do."""

    n: int
    degree: int
    radix: int
    idx: np.ndarray
    code: np.ndarray
    coef: np.ndarray

    @staticmethod
    def build(n: int, degree: int, radix: int, idx, code, coef) -> WordBatch:
        """The batch of the given terms, equal words of a tensor summed."""
        size = radix ** degree
        if max(n, 1) * size >= 1 << 63:
            raise ValueError(f"{n} tensors of {degree} letters < {radix} overflow int64 codes")
        return WordBatch(n, degree, radix, *_summed(idx, code, coef, size))

    @staticmethod
    def from_tensors(tensors: Sequence[SparseTensor], degree: int, radix: int) -> WordBatch:
        """The batch of integer tensors {word: coefficient}."""
        words = [w for t in tensors for w in t]
        letters = np.array(words, dtype=np.int64).reshape(len(words), degree)
        if letters.size and not 0 <= letters.min() <= letters.max() < radix:
            raise ValueError(f"a letter is outside 0 .. {radix - 1}")
        coef = int_array([c for t in tensors for c in t.values()])
        idx = np.repeat(np.arange(len(tensors), dtype=np.int64), [len(t) for t in tensors])
        return WordBatch.build(len(tensors), degree, radix, idx,
                               letters @ place_values(radix, degree), coef)

    def letters(self, slots: Optional[Sequence[int]] = None) -> np.ndarray:
        """The letters of each term, one row per term: all of them, or those
        in the given slots."""
        pw = place_values(self.radix, self.degree)
        if slots is not None:
            pw = pw[list(slots)]
        return self.code[:, None] // pw % self.radix

    def cut(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """(the letter at slot pos, the code of the word without that slot)
        of each term."""
        low = self.radix ** (self.degree - 1 - pos)
        head, tail = np.divmod(self.code, low)
        head, letter = np.divmod(head, self.radix)
        return letter, head * low + tail

    def split_at(self, pos: int) -> WordBatch:
        """Tensor i * radix + a holds the words of tensor i with the letter a
        at slot pos, that slot removed."""
        letter, rest = self.cut(pos)
        return WordBatch.build(self.n * self.radix, self.degree - 1, self.radix,
                               self.idx * self.radix + letter, rest, self.coef)

    def with_letter_inserted(self, pos: int) -> WordBatch:
        """Tensor i * radix + a is tensor i with the letter a inserted at
        slot pos."""
        r, low = self.radix, self.radix ** (self.degree - pos)
        head, tail = np.divmod(self.code, low)
        a = np.arange(r, dtype=np.int64)
        code = (head[:, None] * r + a) * low + tail[:, None]
        return WordBatch.build(self.n * r, self.degree + 1, r, (self.idx[:, None] * r + a).ravel(),
                               code.ravel(), np.repeat(self.coef, r))

    def chunks(self, terms: int) -> Iterator[tuple[int, WordBatch]]:
        """(first tensor, the batch of the next whole tensors, indexed from
        0): as many tensors as hold at most `terms` terms, and at least one."""
        bounds = np.searchsorted(self.idx, np.arange(self.n + 1))
        first = 0
        while first < self.n:
            stop = max(first + 1, int(np.searchsorted(bounds, bounds[first] + terms, "right")) - 1)
            lo, hi = bounds[first], bounds[stop]
            yield first, WordBatch(stop - first, self.degree, self.radix,
                                   self.idx[lo:hi] - first, self.code[lo:hi], self.coef[lo:hi])
            first = stop


def _coset_pass(b: WordBatch, slots: tuple[int, ...], signed: bool) -> WordBatch:
    """(e + sum_i (+-) (slots[i] slots[-1])) applied to each tensor of the
    batch: the identity plus each transposition of the last slot with
    another, signed when antisymmetrizing."""
    k = len(slots)
    # an output word takes at most one term from each of the k moves
    b = replace(b, coef=b.coef.astype(coef_dtype(max_abs(b.coef) * k)))
    pw = place_values(b.radix, b.degree)[list(slots)]
    signs = np.array([1] + [-1 if signed else 1] * (k - 1), dtype=np.int64)
    size = b.radix ** b.degree
    parts = [(b.idx[:0], b.code[:0], b.coef[:0])]
    for first, part in b.chunks(PASS_CELLS // k):
        letters = part.letters(slots)
        # swapping slots[i] and slots[-1] adds (l_last - l_i)(pw_i - pw_last)
        moved = part.code[:, None] + (letters[:, -1:] - letters[:, :-1]) * (pw[:-1] - pw[-1])
        code = np.concatenate([part.code[:, None], moved], axis=1)
        idx, code, coef = _summed(np.repeat(part.idx, k), code.ravel(),
                                  (part.coef[:, None] * signs).ravel(), size)
        parts.append((idx + first, code, coef))
    return WordBatch(b.n, b.degree, b.radix, *map(np.concatenate, zip(*parts)))


def _permutation_pass(b: WordBatch, slots: tuple[int, ...], signed: bool) -> WordBatch:
    """Sum (or signed sum) over all permutations of the letters in `slots`,
    of each tensor of the batch.

    With R_j the identity and the transpositions of slots[j - 1] with the
    slots before it, S_j = R_j S_(j-1), so the sum over S_k is the coset
    passes R_2, R_3, ..., R_k in turn.  After R_j each tensor is symmetric
    (or antisymmetric) in its first j slots and its equal words are summed,
    so a pass holds at most j times the distinct arrangements of a tensor's
    words, never k! terms per word."""
    if signed:  # a letter repeated in an antisymmetrized column gives 0
        s = np.sort(b.letters(slots), axis=1)
        live = (s[:, 1:] != s[:, :-1]).all(axis=1)
        b = replace(b, idx=b.idx[live], code=b.code[live], coef=b.coef[live])
    for j in range(2, len(slots) + 1):
        b = _coset_pass(b, slots[:j], signed)
    return b


def symmetrize_rows(b: WordBatch, lam: Partition) -> WordBatch:
    """a_lam applied to each tensor of the batch: one symmetrizing pass per
    row of length > 1, cells numbered row-major.

    On t = c_lam s this is the adjoint up to a scalar.  Each pass is a sum
    over a group, its own adjoint under any slotwise pairing, so c_lam^* =
    a_lam b_lam; t is in the image of b_lam, hence antisymmetric in each
    column, where a column pass multiplies by h_j!.  So c_lam^* t =
    (prod_j h_j!) a_lam t over the column heights h_j.
    """
    for slots in _young_groups(check_partition(lam))[0]:
        b = _permutation_pass(b, slots, False)
    return b


def apply_symmetrizer(b: WordBatch, lam: Partition) -> WordBatch:
    """The Young symmetrizer c_lam = b_lam a_lam applied to each tensor of
    the batch, factored: the row passes of a_lam, then one antisymmetrizing
    pass per column of height > 1 for b_lam."""
    b = symmetrize_rows(b, lam)
    for slots in _young_groups(check_partition(lam))[1]:
        b = _permutation_pass(b, slots, True)
    return b


def semistandard_tableaux(lam: Partition, v: int) -> list[tuple[tuple[int, ...], ...]]:
    """All SSYT of shape lam with 0-based entries < v, rows as tuples."""
    lam = check_partition(lam)
    if len(lam) > v:
        return []
    if not lam:
        return [()]
    out: list[tuple[tuple[int, ...], ...]] = []
    rows: list[list[int]] = [[] for _ in lam]

    cells = [(i, j) for j in range(lam[0]) for i in range(len(lam)) if lam[i] > j]
    # fill column by column: columns strict top-down, rows weak left-right

    def rec(pos: int):
        if pos == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[pos]
        lo = 0
        if i > 0 and len(rows[i - 1]) > j:
            lo = rows[i - 1][j] + 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        for val in range(lo, v):
            rows[i].append(val)
            rec(pos + 1)
            rows[i].pop()

    rec(0)
    return out


def tableau_word(tab: tuple[tuple[int, ...], ...]) -> Word:
    return tuple(x for row in tab for x in row)


def square_matrix(n: int, entries: dict) -> tuple[tuple[int, ...], ...]:
    """The n x n matrix with the given {(row, col): value} entries, else 0."""
    return tuple(tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n))


def chevalley_generators(v: int) -> list[tuple[tuple[int, ...], ...]]:
    """E_{k,k+1} and E_{k+1,k} for k < v - 1, which generate sl_v as a Lie
    algebra; for v = 1, where sl_1 = 0, the identity E_00 instead."""
    if v == 1:
        return [square_matrix(1, {(0, 0): 1})]
    return [square_matrix(v, {ab: 1}) for k in range(v - 1) for ab in ((k, k + 1), (k + 1, k))]


def letter_images(X: Sequence[Sequence]) -> dict[int, list[tuple[int, object]]]:
    """{a: [(b, X[b][a]) for each nonzero X[b][a]]}: the image of letter a."""
    images: dict[int, list] = {}
    for b, row in enumerate(X):
        for a, x in enumerate(row):
            if x:
                images.setdefault(a, []).append((b, x))
    return images


def matrix_on_letters(xs: Sequence[Sequence[Sequence[int]]], b: WordBatch) -> WordBatch:
    """Derivation action of each integer X_g in gl(V) on each tensor of the
    batch, the sum over slots of X_g applied to the letter in that slot:
    tensor i * G + g of the result is X_g on tensor i, G = len(xs).  The
    letters are decoded once, and each letter a takes the moves a -> c of
    every X_g at once."""
    moves = sorted((a, g, c, x) for g, X in enumerate(xs)
                   for a, images in letter_images(X).items() for c, x in images)
    src, gen, dst = (np.array([m[i] for m in moves], dtype=np.int64) for i in (0, 1, 2))
    x = int_array([m[3] for m in moves])
    a = b.letters().ravel()
    owner, at = matches(src, a)
    term, slot = np.divmod(owner, max(b.degree, 1))
    # an output word takes at most one term from each (slot, letter) pair
    dtype = coef_dtype(max_abs(b.coef) * max_abs(x) * b.degree * b.radix)
    return WordBatch.build(
        b.n * len(xs), b.degree, b.radix, b.idx[term] * len(xs) + gen[at],
        b.code[term] + (dst[at] - a[owner]) * place_values(b.radix, b.degree)[slot],
        b.coef.astype(dtype)[term] * x.astype(dtype)[at])


def linear_combinations(b: WordBatch, m: WordBatch) -> WordBatch:
    """Tensor k of the result is sum_j m_k[j] t_j over the tensors t_j of b,
    for an integer matrix m held as a batch of one-letter tensors m_k over
    the letters 0 .. b.n - 1.  It is expanded whole rows m_k at a time, at
    most about PASS_CELLS terms at once."""
    starts = np.searchsorted(b.idx, np.arange(b.n + 1))
    longest = int(np.diff(starts).max(initial=1))
    # an output word takes at most one term from each j of its row
    dtype = coef_dtype(max_abs(b.coef) * max_abs(m.coef)
                       * int(np.bincount(m.idx, minlength=1).max()))
    parts = [(b.idx[:0], b.code[:0], b.coef[:0].astype(dtype))]
    for first, part in m.chunks(max(1, PASS_CELLS // longest)):
        owner, at = ragged(starts[part.code], starts[part.code + 1] - starts[part.code])
        out = WordBatch.build(part.n, b.degree, b.radix, part.idx[owner], b.code[at],
                              part.coef[owner].astype(dtype) * b.coef[at].astype(dtype))
        parts.append((out.idx + first, out.code, out.coef))
    return WordBatch(m.n, b.degree, b.radix, *map(np.concatenate, zip(*parts)))


@dataclass(frozen=True, eq=False)
class GradedSpan:
    """Canonical basis of a span of grade-homogeneous integer tensors: for
    each grade, in the order of repr(grade), the RREF rows b_k of its block,
    the matrix of its tensors over their words.  The basis is held scaled to
    primitive integer tensors u_k = s_k b_k; b_k is 1 at its pivot word, so
    each scale s_k is u_k there, an integer."""

    scaled_batch: WordBatch  # the u_k, tensor k = basis index k
    scales: tuple[int, ...]  # the s_k
    pivots: np.ndarray  # the code of the pivot word of each b_k

    @staticmethod
    def from_tensors(batch: WordBatch, letter_grades: np.ndarray) -> GradedSpan:
        """The span of the batch's tensors, a word graded by the sum over its
        letters of their rows of letter_grades.  Each block is one dense
        integer matrix, row i for its i-th tensor and column c for its c-th
        word in code order, and all of them go to one qq_rref call."""
        grades = np.zeros((len(batch.code), letter_grades.shape[1]), dtype=np.int64)
        for letters in batch.letters().T:
            grades += letter_grades[letters]
        starts = np.searchsorted(batch.idx, np.arange(batch.n + 1))
        if (grades != grades[starts[batch.idx]]).any():
            raise ValueError("spanning tensor is not grade-homogeneous")
        live = np.flatnonzero(np.diff(starts))  # empty tensors have no grade
        keys = [tuple(g) for g in grades[starts[live]].tolist()]
        rank = {g: r for r, g in enumerate(sorted(set(keys), key=repr))}
        block = np.zeros(batch.n, dtype=np.int64)
        block[live] = [rank[g] for g in keys]
        tensors = live[np.argsort(block[live], kind="stable")]
        row_lo = np.searchsorted(block[tensors], np.arange(len(rank) + 1))
        row = np.zeros(batch.n, dtype=np.int64)
        row[tensors] = np.arange(len(tensors)) - row_lo[block[tensors]]
        # the words of each block in code order, and the column of each term
        size, term_block = batch.radix ** batch.degree, block[batch.idx]
        key, col = np.unique(term_block * size + batch.code, return_inverse=True)
        words, word_lo = key % size, np.searchsorted(key // size, np.arange(len(rank) + 1))
        col -= word_lo[term_block]
        # every block's dense matrix in one flat array, block after block
        nrows, ncols = np.diff(row_lo), np.diff(word_lo)
        cell_lo = np.concatenate([[0], np.cumsum(nrows * ncols)])
        flat = np.zeros(cell_lo[-1], dtype=batch.coef.dtype)
        flat[cell_lo[term_block] + row[batch.idx] * ncols[term_block] + col] = batch.coef
        rrefs = qq_rref([flat[cell_lo[g]:cell_lo[g + 1]].reshape(nrows[g], ncols[g])
                         for g in range(len(rank))])
        empty = np.zeros(0, dtype=np.int64)
        terms, scales, pivots, dim = [(empty,) * 3], [empty], [empty], 0
        for lo, (u, s, piv) in zip(word_lo.tolist(), rrefs):
            k, c = np.nonzero(u)  # row-major: by basis index, then word code
            terms.append((dim + k, words[lo + c], u[k, c]))
            scales.append(s)
            pivots.append(words[lo + np.array(piv, dtype=np.int64)])
            dim += len(u)
        return GradedSpan(WordBatch(dim, batch.degree, batch.radix,
                                    *map(np.concatenate, zip(*terms))),
                          tuple(np.concatenate(scales).tolist()), np.concatenate(pivots))

    @property
    def dim(self) -> int:
        return self.scaled_batch.n

    @cached_property
    def scale_factors(self) -> tuple[int, np.ndarray]:
        """(L, L / s_k): the lcm L of the scales s_k, and the factor of
        each as a read-only int_array.  Cached: every reader of the span's
        coordinates scales by them."""
        big = lcm(1, *self.scales)
        factor = int_array([big // s for s in self.scales])
        factor.setflags(write=False)
        return big, factor

    def coordinates(self, batch: WordBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     np.ndarray]:
        """(image, k, c, outside): the coordinates c_k on the basis b_k of
        each integer tensor t of the batch, one term per nonzero c_k, image
        the index of its tensor, and whether each tensor is outside the span.

        c_k is t at the pivot word of b_k, where b_k is 1 and every other
        basis tensor is 0.  With L the lcm of the s_k, t lies in the span
        exactly when L t = sum_k c_k (L / s_k) u_k, which is checked in
        integers.
        """
        u = self.scaled_batch
        if batch.radix != u.radix:
            raise ValueError(f"letters < {batch.radix} against a span over letters < {u.radix}")
        if batch.degree != u.degree:
            raise ValueError(f"degree {batch.degree} tensors against a span of degree {u.degree}")
        order = np.argsort(self.pivots)
        pivot_code = np.append(self.pivots[order], np.iinfo(np.int64).max)
        at = np.searchsorted(pivot_code, batch.code)
        hit = pivot_code[at] == batch.code
        ti, k, c = batch.idx[hit], order[at[hit]], batch.coef[hit]
        starts = np.searchsorted(u.idx, np.arange(self.dim + 1))
        owner, term = ragged(starts[k], starts[k + 1] - starts[k])
        big, factor = self.scale_factors
        # a word's residual sums L t_w and at most one term of each u_k
        dtype = coef_dtype(big * max(1, max_abs(batch.coef)) * (1 + self.dim * max_abs(u.coef)))
        resid, _, _ = _summed(
            np.concatenate([batch.idx, ti[owner]]),
            np.concatenate([batch.code, u.code[term]]),
            np.concatenate([batch.coef.astype(dtype) * big,
                            -(c.astype(dtype)[owner] * factor.astype(dtype, copy=False)[k[owner]]
                              * u.coef.astype(dtype, copy=False)[term])]),
            batch.radix ** batch.degree)
        outside = np.zeros(batch.n, dtype=bool)
        outside[resid] = True
        return ti, k, c, outside
