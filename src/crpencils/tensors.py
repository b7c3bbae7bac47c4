"""Sparse tensors on word bases, Young symmetrizers, and graded spans.

A tensor in V^{tensor d} is a dict mapping words (tuples of 0-based letters)
to int or Fraction coefficients.  Permutations act on slots: (sigma . w) puts
the letter from slot i into slot sigma[i].  A Young symmetrizer is applied
factored, one symmetrizing pass per row and one antisymmetrizing pass per
column of the diagram; a pass visits each distinct arrangement of a word's
letters once, with its multiplicity, and integer tensors stay integer
throughout.  On the image of c_lam the adjoint is the row passes times a
scalar (symmetrize_rows).

GradedSpan holds a canonical (per-block RREF) basis of a span of tensors that
are homogeneous for some grading of words (content, or torus weight); all
coordinate extraction happens blockwise via pivot words.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .linalg import qq_rref
from .partitions import Partition, check_partition, conjugate

Word = tuple[int, ...]
SparseTensor = dict  # Word -> int or Fraction

ZERO = Fraction(0)


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


def _arrangements(letters: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of the sorted letters, lexicographically."""
    if not letters:
        yield ()
    for i, a in enumerate(letters):
        if i == 0 or letters[i - 1] != a:
            for rest in _arrangements(letters[:i] + letters[i + 1 :]):
                yield (a,) + rest


@lru_cache(maxsize=None)
def _orbit(key: tuple[int, ...], signed: bool) -> dict:
    """sum_sigma (sign sigma) sigma.key over the permutations of the slots,
    for sorted letters key, as {arrangement: coefficient}.  Symmetrizing,
    each distinct arrangement comes from prod_i m_i! permutations (m_i the
    multiplicity of each letter).  Antisymmetrizing, a repeated letter gives
    nothing, and distinct letters give every arrangement with its sign.
    Keyed by the multiset, the cache stays small."""
    if not signed:
        return dict.fromkeys(_arrangements(key), prod(map(factorial, Counter(key).values())))
    if len(set(key)) < len(key):
        return {}
    return {arr: perm_sign(arr) for arr in _arrangements(key)}


@lru_cache(maxsize=None)
def _slot_getters(n: int, slots: tuple[int, ...]) -> tuple[itemgetter, itemgetter]:
    """(the letters in slots, the word w + arr with arr put into slots)."""
    put = [n + slots.index(i) if i in slots else i for i in range(n)]
    return itemgetter(*slots), itemgetter(*put)


def _group_pass(t: SparseTensor, slots: tuple[int, ...], signed: bool) -> SparseTensor:
    """Sum (or signed sum) over all permutations of the letters in `slots`."""
    out: SparseTensor = {}
    for w, c in t.items():
        take, put = _slot_getters(len(w), slots)
        letters = take(w)
        orbit = _orbit(tuple(sorted(letters)), signed)
        if signed and orbit:  # the sign of the word's own order of its letters
            c *= orbit[letters]
        for arr, k in orbit.items():
            key = put(w + arr)
            out[key] = out.get(key, 0) + k * c
    return {w: c for w, c in out.items() if c}


def symmetrize_rows(t: SparseTensor, lam: Partition) -> SparseTensor:
    """a_lam t: one symmetrizing pass per row of length > 1, cells numbered
    row-major.

    On t = c_lam s this is the adjoint up to a scalar.  Each pass is a sum
    over a group, its own adjoint under any slotwise pairing, so c_lam^* =
    a_lam b_lam; t is in the image of b_lam, hence antisymmetric in each
    column, where a column pass multiplies by h_j!.  So c_lam^* t =
    (prod_j h_j!) a_lam t over the column heights h_j.
    """
    for slots in _young_groups(check_partition(lam))[0]:
        t = _group_pass(t, slots, False)
    return t


def apply_symmetrizer(t: SparseTensor, lam: Partition) -> SparseTensor:
    """The Young symmetrizer c_lam = b_lam a_lam applied to t, factored: the
    row passes of a_lam, then one antisymmetrizing pass per column of height
    > 1 for b_lam."""
    t = symmetrize_rows(t, lam)
    for slots in _young_groups(check_partition(lam))[1]:
        t = _group_pass(t, slots, True)
    return t


def integer_scaled(t: SparseTensor) -> tuple[SparseTensor, Fraction]:
    """(s t, s): t scaled to a primitive integer tensor by a rational s > 0."""
    den = lcm(1, *(x.denominator for x in t.values()))
    nums = {w: x.numerator * (den // x.denominator) for w, x in t.items()}
    g = gcd(*nums.values()) or 1
    return {w: x // g for w, x in nums.items()}, Fraction(den, g)


def insert_letter(t: SparseTensor, pos: int, letter: int) -> SparseTensor:
    return {w[:pos] + (letter,) + w[pos:]: c for w, c in t.items()}


def content(word: Word, v: int) -> tuple[int, ...]:
    counts = [0] * v
    for a in word:
        counts[a] += 1
    return tuple(counts)


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


def matrix_on_letters(X: Sequence[Sequence], t: SparseTensor) -> SparseTensor:
    """Derivation action of X in gl(V) on a tensor: sum over slots.  X's
    nonzero entries are read once; integer X and t give an integer result."""
    images = letter_images(X)
    out: SparseTensor = {}
    for w, c in t.items():
        for s, a in enumerate(w):
            for b, x in images.get(a, ()):
                nw = w[:s] + (b,) + w[s + 1 :]
                out[nw] = out.get(nw, 0) + c * x
    return {w: c for w, c in out.items() if c}


@dataclass
class _Block:
    rows: list[SparseTensor]
    pivot_words: list[Word]
    row_offset: int


@dataclass
class GradedSpan:
    """Canonical basis of a span of grade-homogeneous sparse tensors."""

    grade_fn: Callable[[Word], Hashable]
    blocks: dict = field(default_factory=dict)
    basis: list = field(default_factory=list)

    @staticmethod
    def from_tensors(tensors: Iterable[SparseTensor],
                     grade_fn: Callable[[Word], Hashable]) -> "GradedSpan":
        grade = lru_cache(maxsize=None)(grade_fn)  # a word in many tensors is graded once
        by_grade: dict[Hashable, list[SparseTensor]] = {}
        for t in tensors:
            if not t:
                continue
            grades = set(map(grade, t))
            if len(grades) != 1:
                raise ValueError("spanning tensor is not grade-homogeneous")
            by_grade.setdefault(grades.pop(), []).append(t)
        span = GradedSpan(grade_fn)
        offset = 0
        for g in sorted(by_grade, key=repr):
            vecs = by_grade[g]
            words = sorted({w for t in vecs for w in t})
            index = {w: i for i, w in enumerate(words)}
            dense = [[0] * len(words) for _ in vecs]
            for r, t in enumerate(vecs):
                for w, c in t.items():
                    dense[r][index[w]] = c
            rref, pivots = qq_rref(dense)
            # qq_rref shares one Fraction object per value, so testing identity
            # with one zero entry skips nearly every zero without Fraction.__bool__
            zero = rref[0][pivots[1]] if len(rref) > 1 else None
            rows = [{w: x for w, x in zip(words, row) if x is not zero and x} for row in rref]
            span.blocks[g] = _Block(rows, [words[p] for p in pivots], offset)
            span.basis.extend(rows)
            offset += len(rows)
        return span

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, t: SparseTensor, check: bool = True) -> Optional[list[Fraction]]:
        """Coordinates of t in the basis, or None when t is outside the span."""
        coords = [ZERO] * self.dim
        by_grade: dict[Hashable, SparseTensor] = {}
        for w, c in t.items():
            by_grade.setdefault(self.grade_fn(w), {})[w] = c
        for g, part in by_grade.items():
            blk = self.blocks.get(g)
            if blk is None:
                return None
            cs = [part.get(pw, ZERO) for pw in blk.pivot_words]
            for r, c in enumerate(cs):
                coords[blk.row_offset + r] = c
            if check:
                resid = dict(part)
                for r, c in enumerate(cs):
                    if c:
                        tensor_iadd(resid, blk.rows[r], -c)
                if resid:
                    return None
        return coords

    def contains(self, t: SparseTensor) -> bool:
        return self.coordinates(t, check=True) is not None

    @cached_property
    def scaled_basis(self) -> tuple[dict, list, list]:
        """(pivot word -> basis index, each basis tensor b_k scaled to a
        primitive integer tensor u_k = s_k b_k, the scales s_k).  Each s_k is
        an integer: b_k is 1 at its pivot word, so u_k is s_k there."""
        words = [w for blk in self.blocks.values() for w in blk.pivot_words]
        scaled = [integer_scaled(t)[0] for t in self.basis]
        return ({w: k for k, w in enumerate(words)}, scaled,
                [u[w] for u, w in zip(scaled, words)])
