"""Sparse tensors on word bases, Young symmetrizers, and graded spans.

A tensor in V^{tensor d} is a dict mapping words (tuples of 0-based letters)
to Fraction coefficients.  Permutations act on slots: (sigma . w) puts the
letter from slot i into slot sigma[i].  Young symmetrizers are expanded once
into an explicit signed permutation list and applied term by term.

GradedSpan holds a canonical (per-block RREF) basis of a span of tensors that
are homogeneous for some grading of words (content, or torus weight); all
coordinate extraction happens blockwise via pivot words.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .linalg import qq_rref
from .partitions import Partition, check_partition, conjugate

Word = tuple[int, ...]
SparseTensor = dict  # Word -> Fraction

ZERO = Fraction(0)


def tensor_iadd(acc: SparseTensor, t: SparseTensor, c: Fraction = Fraction(1)) -> SparseTensor:
    for w, x in t.items():
        v = acc.get(w, ZERO) + c * x
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
    cells = row_major_cells(lam)
    return cells.index((row, col))


def _group_perms(n: int, groups: Sequence[Sequence[int]], signed: bool) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of n slots fixing each group setwise, as (mapping, sign)."""
    out: list[tuple[tuple[int, ...], int]] = []
    per_group = []
    for g in groups:
        opts = []
        for perm in permutations(g):
            sign = perm_sign([g.index(x) for x in perm]) if signed else 1
            opts.append((perm, sign))
        per_group.append((g, opts))
    for combo in product(*(opts for _, opts in per_group)):
        mapping = list(range(n))
        sign = 1
        for (g, _), (perm, s) in zip(per_group, combo):
            for src, dst in zip(g, perm):
                mapping[src] = dst
            sign *= s
    # mapping[i] = destination slot of the letter in slot i
        out.append((tuple(mapping), sign))
    return out


def young_symmetrizer_perms(lam: Partition) -> list[tuple[tuple[int, ...], int]]:
    """Signed permutation expansion of the Young symmetrizer for lam.

    Convention: symmetrize along rows first, then antisymmetrize along
    columns, cells numbered row-major.  Returned pairs (mapping, sign) are
    the terms of the column operator composed after the row operator.
    """
    lam = check_partition(lam)
    cells = row_major_cells(lam)
    slot = {c: i for i, c in enumerate(cells)}
    rows = [[slot[(i, j)] for j in range(r)] for i, r in enumerate(lam)]
    cols = [
        [slot[(i, j)] for i in range(h)] for j, h in enumerate(conjugate(lam))
    ]
    n = len(cells)
    row_perms = _group_perms(n, [r for r in rows if len(r) > 1], signed=False)
    col_perms = _group_perms(n, [c for c in cols if len(c) > 1], signed=True)
    out = []
    for cp, cs in col_perms:
        for rp, _ in row_perms:
            # first rp, then cp: slot i -> rp[i] -> cp[rp[i]]
            out.append((tuple(cp[rp[i]] for i in range(n)), cs))
    return out


def adjoint_perms(perms: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    """Adjoint of a signed permutation sum under any slotwise pairing."""
    out = []
    for mapping, sign in perms:
        inv = [0] * len(mapping)
        for i, m in enumerate(mapping):
            inv[m] = i
        out.append((tuple(inv), sign))
    return out


def apply_perms(t: SparseTensor, perms: list[tuple[tuple[int, ...], int]]) -> SparseTensor:
    out: SparseTensor = {}
    for w, c in t.items():
        for mapping, sign in perms:
            nw = [0] * len(w)
            for i, letter in enumerate(w):
                nw[mapping[i]] = letter
            key = tuple(nw)
            v = out.get(key, ZERO) + (c if sign > 0 else -c)
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def apply_perms_word(word: Word, perms: list[tuple[tuple[int, ...], int]]) -> SparseTensor:
    return apply_perms({word: Fraction(1)}, perms)


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


def gl_generator_matrices(v: int) -> list[tuple[tuple[int, ...], ...]]:
    """Chevalley-style generators of gl_v: E_{k,k+1}, E_{k+1,k}, E_{kk}."""
    gens = []
    for k in range(v - 1):
        for (a, b) in ((k, k + 1), (k + 1, k)):
            m = [[0] * v for _ in range(v)]
            m[a][b] = 1
            gens.append(tuple(tuple(r) for r in m))
    for k in range(v):
        m = [[0] * v for _ in range(v)]
        m[k][k] = 1
        gens.append(tuple(tuple(r) for r in m))
    return gens


def matrix_on_letters(X: Sequence[Sequence], t: SparseTensor) -> SparseTensor:
    """Derivation action of X in gl(V) on a tensor: sum over slots."""
    out: SparseTensor = {}
    for w, c in t.items():
        for s, a in enumerate(w):
            for b in range(len(X)):
                x = X[b][a]
                if x:
                    nw = w[:s] + (b,) + w[s + 1 :]
                    v = out.get(nw, ZERO) + c * Fraction(x)
                    if v:
                        out[nw] = v
                    else:
                        del out[nw]
    return out


@dataclass
class _Block:
    words: list[Word]
    rows: list[SparseTensor]
    pivot_words: list[Word]
    row_offset: int


@dataclass
class GradedSpan:
    """Canonical basis of a span of grade-homogeneous sparse tensors."""

    degree: int
    grade_fn: Callable[[Word], Hashable]
    blocks: dict = field(default_factory=dict)
    basis: list = field(default_factory=list)

    @staticmethod
    def from_tensors(tensors: Iterable[SparseTensor], degree: int,
                     grade_fn: Callable[[Word], Hashable]) -> "GradedSpan":
        by_grade: dict[Hashable, list[SparseTensor]] = {}
        for t in tensors:
            if not t:
                continue
            grades = {grade_fn(w) for w in t}
            if len(grades) != 1:
                raise ValueError("spanning tensor is not grade-homogeneous")
            by_grade.setdefault(grades.pop(), []).append(t)
        span = GradedSpan(degree, grade_fn)
        offset = 0
        for g in sorted(by_grade, key=repr):
            vecs = by_grade[g]
            words = sorted({w for t in vecs for w in t})
            index = {w: i for i, w in enumerate(words)}
            dense = [[ZERO] * len(words) for _ in vecs]
            for r, t in enumerate(vecs):
                for w, c in t.items():
                    dense[r][index[w]] = c
            rref, pivots = qq_rref(dense)
            rows = [
                {words[j]: x for j, x in enumerate(row) if x} for row in rref
            ]
            blk = _Block(words, rows, [words[p] for p in pivots], offset)
            span.blocks[g] = blk
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
