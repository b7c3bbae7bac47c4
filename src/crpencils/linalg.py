"""Exact dense linear algebra over Q and over prime fields F_p.

Rational matrices are lists of lists of Fraction (or int); prime-field
matrices are numpy int64 arrays with entries reduced into [0, p).  Primes
must be odd and below 2**31 so that products of two residues fit in int64.
The RREF, rank, kernel and row selection of one matrix over F_p read a
ModpEchelon, whose block updates are exact float64 BLAS products;
modp_ranks ranks a whole stack of small matrices at once.

Subspace is the canonical (RREF basis) representation of a row space.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_PRIME = 2147483629

_PRIME_LIMIT = 1 << 31


def check_prime(p: int) -> int:
    """p itself when it is an odd prime below 2^31, else ValueError.

    Deterministic Miller-Rabin with bases 2, 7 and 61, which is exact below
    4,759,123,141 (Jaeschke 1993).
    """
    if 2 < p < _PRIME_LIMIT and p % 2:
        d, s = p - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        if all(a % p == 0 or pow(a, d, p) == 1
               or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in (2, 7, 61)):
            return p
    raise ValueError(f"prime must be an odd prime < 2^31, got {p}")


def reduce_mod(x, p: int) -> int:
    """Image of a rational number in F_p; fails if p divides the denominator."""
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {f} vanishes mod {p}")
    return f.numerator * pow(f.denominator, -1, p) % p


def mat_mod(rows: Sequence[Sequence], p: int) -> np.ndarray:
    """The matrix reduced into [0, p) as int64: integer entries with one
    numpy `% p`, any other entry (a Fraction) through reduce_mod."""
    a = np.asarray(rows)
    if a.dtype.kind not in "iu":
        a = a.astype(object)
        for idx, x in np.ndenumerate(a):
            if not isinstance(x, (int, np.integer)):
                a[idx] = reduce_mod(x, p)
    return (a % p).astype(np.int64)


# ---------------------------------------------------------------------------
# rational elimination


def qq_rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def qq_rank(rows: Sequence[Sequence]) -> int:
    if rows and all(isinstance(x, int) for row in rows for x in row):
        return bareiss_rank(rows)
    return len(qq_rref(rows)[0])


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    prev = 1
    r = 0
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


def qq_kernel(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list[list[Fraction]]:
    """Basis of the right kernel {x : m x = 0}, one row per basis vector."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rref, pivots = qq_rref(rows) if rows else ([], [])
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# prime-field elimination

_LIMB_BITS = 16
_EXACT_INNER = 1 << 21  # limb products are < 2^32; 2^21 of them sum below 2^53
ECHELON_BLOCK = 64  # rows reduced against the echelon basis per exact product


def _mul_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices in [0, p), on float64 BLAS.

    Above 2^16 the residues are split into 16-bit limbs, so each limb product
    is below 2^32 and float64 sums of up to 2^21 of them are exact integers.
    The inner dimension is chunked at 2^21 and the limb products are
    recombined mod p in int64.
    """
    m, n = a.shape[0], b.shape[1]
    split = p > 1 << _LIMB_BITS
    mask = (1 << _LIMB_BITS) - 1
    out = np.zeros((m, n), dtype=np.int64)
    for s in range(0, a.shape[1], _EXACT_INNER):
        ac, bc = a[:, s : s + _EXACT_INNER], b[s : s + _EXACT_INNER]
        if split:
            ac = np.concatenate([ac & mask, ac >> _LIMB_BITS])
            bc = np.concatenate([bc & mask, bc >> _LIMB_BITS], axis=1)
        c = (ac.astype(np.float64) @ bc.astype(np.float64)).astype(np.int64)
        if split:  # [[lo lo, lo hi], [hi lo, hi hi]]; the sum stays below 2^63
            c = (c[:m, :n] + ((c[:m, n:] + c[m:, :n]) % p << _LIMB_BITS)
                 + c[m:, n:] % p * (2 ** (2 * _LIMB_BITS) % p))
        out = (out + c) % p
    return out


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """RREF of a few residue rows, in place, pivot by pivot: the nonzero
    rows, their pivot columns and the row of `a` each of them came from."""
    nrows, ncols = a.shape
    order = np.arange(nrows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            order[[r, piv]] = order[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        rest = np.flatnonzero(a[:, c])
        rest = rest[rest != r]
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots, order[:r]


class ModpEchelon:
    """The reduced row echelon form over F_p of a growing set of rows.

    `basis` holds the RREF rows sorted by pivot column, so basis[:, pivots]
    is the identity.  `add` takes rows in blocks of ECHELON_BLOCK: a block is
    reduced against the basis with one exact product, its remaining rows are
    eliminated pivot by pivot, and the new pivots are cleared from the basis
    with one more exact product.
    """

    def __init__(self, ncols: int, p: int) -> None:
        self.p = p
        self.basis = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)

    def add(self, rows) -> list[int]:
        """Add the rows; returns the indices of those that raised the rank,
        a maximal subset independent modulo the rows added before."""
        rows = np.asarray(rows, dtype=np.int64) % self.p
        raised: list[int] = []
        for s in range(0, len(rows), ECHELON_BLOCK):
            raised += (s + self._add_block(rows[s : s + ECHELON_BLOCK])).tolist()
        return raised

    def _add_block(self, block: np.ndarray) -> np.ndarray:
        p, basis, pivots = self.p, self.basis, self.pivots
        free = np.ones(basis.shape[1], dtype=bool)
        free[pivots] = False
        if pivots.size:
            block[:, free] = (block[:, free]
                              - _mul_exact(block[:, pivots], basis[:, free], p)) % p
            block[:, pivots] = 0
        cols = np.flatnonzero(block.any(axis=0))  # row operations keep zero columns zero
        rows, new_pivots, source = _gauss_jordan(block[:, cols], p)
        if not new_pivots:
            return source
        new = np.zeros((len(rows), basis.shape[1]), dtype=np.int64)
        new[:, cols] = rows
        new_pivots = cols[new_pivots]
        if pivots.size:  # new[:, new_pivots] = I, so this clears those columns
            basis[:, free] = (basis[:, free]
                              - _mul_exact(basis[:, new_pivots], new[:, free], p)) % p
        pivots = np.concatenate([pivots, new_pivots])
        order = np.argsort(pivots)
        self.basis = np.concatenate([basis, new])[order]
        self.pivots = pivots[order]
        return source

    def kernel(self) -> np.ndarray:
        """Right kernel basis: the row e_f - sum_r basis[r, f] e_pivot(r) for
        each free column f."""
        ncols = self.basis.shape[1]
        free = np.setdiff1d(np.arange(ncols), self.pivots)
        out = np.zeros((free.size, ncols), dtype=np.int64)
        out[np.arange(free.size), free] = 1
        out[:, self.pivots] = -self.basis[:, free].T % self.p
        return out


def modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: (nonzero rows, pivot columns)."""
    ech = ModpEchelon(np.shape(a)[1], p)
    ech.add(a)
    return ech.basis, ech.pivots.tolist()


def modp_rank(a: np.ndarray, p: int) -> int:
    return len(modp_rref(a, p)[1])


def modp_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of each matrix in an (N, m, n) stack, all at once.

    Column by column, each matrix picks its own pivot among the rows it has
    not used yet and clears that column from its other unused rows with the
    inverse-free update row <- pivot*row - a_ic*pivot_row.  Both products
    are below p^2 < 2^62, and scaling a row by a unit keeps the rank.
    """
    a = np.asarray(stack, dtype=np.int64) % p
    if a.shape[2] > a.shape[1]:  # fewer columns, fewer steps
        a = a.transpose(0, 2, 1)
    count, m, ncols = a.shape
    mats = np.arange(count)
    used = np.zeros((count, m), dtype=bool)
    for c in range(ncols):
        col = np.where(used, 0, a[:, :, c])
        piv = (col != 0).argmax(axis=1)
        pivot = col[mats, piv]
        col[mats, piv] = 0
        scale = np.where(col != 0, pivot[:, None], 1)
        a[:, :, c + 1:] = (scale[:, :, None] * a[:, :, c + 1:]
                           - col[:, :, None] * a[mats, piv, None, c + 1:]) % p
        used[mats, piv] |= pivot != 0
    return used.sum(axis=1)


def modp_independent_rows(a: np.ndarray, p: int) -> list[int]:
    """Original indices of a maximal independent subset of rows, mod p."""
    return sorted(ModpEchelon(np.shape(a)[1], p).add(a))


def modp_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Right kernel basis as rows of an int64 array."""
    ech = ModpEchelon(np.shape(a)[1], p)
    ech.add(a)
    return ech.kernel()


def modp_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product mod p, chunked so int64 accumulation cannot overflow."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64)
    if b.size and not 0 <= b.min() <= b.max() < p:  # a reduced b is not copied
        b = b % p
    # each product < p^2 < 2^62; sum at most one extra doubling before reduce
    step = max(1, (1 << 62) // (p * p))
    n = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, n, step):
        out = (out + a[:, s : s + step] @ b[s : s + step]) % p
    return out


# ---------------------------------------------------------------------------
# canonical subspaces


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical form: RREF basis rows.

    p == 0 means the rationals; otherwise an odd prime < 2^31.  Equality of
    subspaces is equality of the stored data.
    """

    ambient_dim: int
    basis: tuple[tuple, ...]
    p: int = 0

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence], ambient_dim: int, p: int = 0) -> "Subspace":
        vecs = list(vectors)
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient_dim")
        if p == 0:
            rref, _ = qq_rref(vecs) if vecs else ([], [])
            basis = tuple(tuple(row) for row in rref)
        else:
            check_prime(p)
            rref = modp_rref(mat_mod(vecs, p), p)[0].tolist() if vecs else []
            basis = tuple(map(tuple, rref))
        return Subspace(ambient_dim, basis, p)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient_dim")
        if self.p == 0:
            v = [Fraction(x) for x in v]
            for row in self.basis:
                c = next(i for i, x in enumerate(row) if x)
                if v[c]:
                    f = v[c]
                    v = [x - f * y for x, y in zip(v, row)]
            return not any(v)
        v = mat_mod([v], self.p)[0]
        for row in self.basis:
            c = next(i for i, x in enumerate(row) if x)
            if v[c]:
                v = (v - int(v[c]) * np.array(row, dtype=np.int64)) % self.p
        return not v.any()

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise ValueError("subspaces live in different ambient spaces")
        return all(self.contains(row) for row in other.basis)
