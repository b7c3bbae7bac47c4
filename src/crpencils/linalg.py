"""Exact dense linear algebra over Q and over prime fields F_p.

Matrices over Q are integer numpy arrays, int64 while no value a step forms
can reach EXACT_BOUND and Python ints in object arrays otherwise; rational
rows are scaled to integers by integer_rows.  Prime-field matrices are
int64 arrays with entries reduced into [0, p), p an odd prime below 2**31,
so that products of two residues fit in int64.  modp_matmul is the one
product mod p, exact on float64 BLAS, and _mod the one reduction of an
integer array, x - (x // p) p, which numpy runs on libdivide.

Over F_p there are two eliminations.  modp_ranks and modp_kernel take an
(N, m, n) stack and choose by matrix size: a matrix of more than
ECHELON_CELLS cells is eliminated alone by the echelon, smaller ones
together by the stacked loop.
  - the stacked forward loop (_forward): one vectorized pass over a stack
    of small matrices, stored column-major with the stack innermost, as
    (n, m, N), so that each step reads one contiguous slab and each numpy
    loop of its update runs along the N matrices of the stack rather than
    the m rows of one matrix, reducing only when the next step could
    overflow.  The exhaustive runs rank hundreds of 14x14 matrices per
    stack, where a run of 14 entries cost more in loop overhead than in
    arithmetic.  Its entries are the narrowest of int8, int16, int32 and
    int64 that holds one update of residues, 2(p-1)^2 (int8 for p <= 7,
    int16 for p <= 127, int32 for p <= 32749), so the small primes of
    exhaustive runs move an eighth to a half of the bytes of int64.
    analysis stacks up to 2^17 cells (analysis.STACK_CELLS): the loop's
    per-column numpy calls are shared by every matrix in the stack;
  - ModpEchelon, built on modp_matmul, serves growing systems (the
    neutral-direction constraints), the qq_rref lift, Subspace, and single
    matrices: modp_rref, modp_rank, and the large matrices of modp_ranks
    and modp_kernel.  It keeps only its free-column block: the pivot
    columns, the free columns and X, the RREF restricted to the free
    columns.  Rows are reduced into free coordinates with one product
    (add), or, for the outer-product rows of the neutral-direction
    constraints, without being formed (add_outer); they are then inserted
    in blocks of ECHELON_BLOCK rows, each reduced by the pivots the call
    has added before it and eliminated by recursive halving (_eliminate),
    which leaves _gauss_jordan's row-by-row elimination to blocks of at
    most 16 rows.

Over Q there is one elimination: qq_rref lifts the ModpEchelon RREF to Q,
checks it with one integer product, and returns it as (u, s, pivots), row
k the primitive integer row u[k] over s[k] = u[k, pivots[k]] > 0.  Every
exact rank (qq_rank) and integer kernel (qq_kernel, hence every
contraction kernel of the modules) goes through it.
distinct_primitive_rows drops the rows of an integer matrix that repeat
another up to a scalar before its kernel is taken.

Subspace is the canonical (RREF basis) representation of a row space over
F_p.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_PRIME = 2147483629

_PRIME_LIMIT = 1 << 31

EXACT_BOUND = 1 << 62  # int64 arithmetic is used only below this bound


def coef_dtype(bound: int):
    """int64 when no value a step can form reaches `bound`, else Python ints
    in an object array."""
    return np.int64 if bound < EXACT_BOUND else object


def max_abs(a: np.ndarray) -> int:
    """The largest |entry| of an int64 or object array; 0 when it is empty."""
    return int(np.abs(a).max(initial=0))


def int_array(values: list) -> np.ndarray:
    """Integer values as int64, or as Python ints when one reaches 2^62."""
    if not all(type(c) is int for c in values):
        raise TypeError("a batch holds int coefficients only")
    return np.array(values, dtype=coef_dtype(max(map(abs, values), default=0)))


def is_prime(p: int) -> bool:
    """Whether p is an odd prime below 2^31.

    Deterministic Miller-Rabin with bases 2, 7 and 61, which is exact below
    4,759,123,141 (Jaeschke 1993).
    """
    if not (2 < p < _PRIME_LIMIT and p % 2):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(a % p == 0 or pow(a, d, p) == 1
               or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in (2, 7, 61))


def check_prime(p: int) -> int:
    """p itself when it is an odd prime below 2^31, else ValueError."""
    if is_prime(p):
        return p
    raise ValueError(f"prime must be an odd prime < 2^31, got {p}")


def reduce_mod(x, p: int) -> int:
    """Image of a rational number in F_p; fails if p divides the denominator."""
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {f} vanishes mod {p}")
    return f.numerator * pow(f.denominator, -1, p) % p


def _mod(x, p: int):
    """x mod p entrywise, in [0, p), as an array of x's dtype: x - (x // p) p,
    formed in place in the quotient array.  numpy divides by a scalar on
    libdivide, which makes this several times faster than its `%`.  It is
    exact on fixed-width integers too: the result lies in [0, p), so a
    two's-complement wrap of (x // p) p cancels in the difference.  Python
    ints (object arrays) are exact."""
    r = np.floor_divide(x, p, out=np.empty_like(x))
    r *= p
    return np.subtract(x, r, out=r)


def mat_mod(rows: Sequence[Sequence], p: int) -> np.ndarray:
    """The matrix reduced into [0, p) as int64: integer entries, and a
    float array whose entries are all integers, with one _mod; any
    other entry (a Fraction) through reduce_mod.  Python ints of mixed sign
    past 2^63 would promote to float64, so any other matrix that numpy does
    not read as integers is rebuilt from the rows exactly."""
    a = np.asarray(rows)
    if (isinstance(rows, np.ndarray) and a.dtype.kind == "f"
            and np.abs(a).max(initial=0) < 2.0 ** 63 and (a == np.trunc(a)).all()):
        a = a.astype(np.int64)  # integer-valued floats: exact in int64
    if a.dtype.kind not in "iu":
        a = np.array(rows, dtype=object)
        for idx, x in np.ndenumerate(a):
            if not isinstance(x, (int, np.integer)):
                a[idx] = reduce_mod(x, p)
    return _mod(a, p).astype(np.int64)


# ---------------------------------------------------------------------------
# rational elimination


@lru_cache(maxsize=None)
def _prime_below(p: int) -> int:
    return next(q for q in range(p - 2, 2, -2) if is_prime(q))


def _primes():
    """DEFAULT_PRIME, then every smaller odd prime in decreasing order."""
    p = DEFAULT_PRIME
    while p > 3:
        yield p
        p = _prime_below(p)


def integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators: same row space, int entries.

    Ints and Fractions are read through numerator/denominator as they are;
    any other number (a numpy int, whose numerator is not a Python int, a
    float, a bool) goes through Fraction first."""
    out = []
    for row in rows:
        row = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
        den = lcm(1, *(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _rational_lift(res: np.ndarray, m: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(numerators, denominators) n/d = res mod m with |n|, d <= sqrt(m/2)
    and gcd(d, m) = 1, entrywise; None when some entry has no such lift.

    The half extended Euclidean algorithm on (m, res), stopped at the first
    remainder <= sqrt(m/2) (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 5.10), run on all entries at once: in int64 for one
    prime, where every remainder and cofactor stays below m < 2^31, and in
    Python ints (an object array) for a CRT modulus.
    """
    bound = isqrt(m // 2)
    r1 = res.reshape(-1).copy()
    r0, t0, t1 = np.full_like(r1, m), np.zeros_like(r1), np.ones_like(r1)
    act = np.flatnonzero(r1 > bound)
    while act.size:
        q = r0[act] // r1[act]
        r0[act], r1[act] = r1[act], r0[act] - q * r1[act]
        t0[act], t1[act] = t1[act], t0[act] - q * t1[act]
        act = act[r1[act] > bound]
    den = np.abs(t1)
    if (den > bound).any() or any(gcd(d, m) != 1 for d in set(den.tolist())):
        return None
    return np.where(t1 < 0, -r1, r1).reshape(res.shape), den.reshape(res.shape)


def _tight(a: np.ndarray) -> np.ndarray:
    """An integer array as int64, or as Python ints once an entry reaches EXACT_BOUND."""
    return a.astype(coef_dtype(max_abs(a)), copy=False)


def _scaled_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Each row of R = num / den times the lcm s_k of its denominators.

    When R is in reduced echelon form the row u_k is primitive: its pivot 1
    becomes s_k, prime to every prime q that does not divide s_k, and for
    q^e exactly dividing s_k some entry n/d has q^e | d, so n s_k / d is
    prime to q."""
    # every entry is at most max|num| times the lcm of all denominators
    dtype = coef_dtype(lcm(*set(den.ravel().tolist())) * max_abs(num))
    num, den = num.astype(dtype), den.astype(dtype)
    return _tight(num * (np.lcm.reduce(den, axis=1)[:, None] // den))


def _is_lift(a: np.ndarray, pivots: list[int], u: np.ndarray, s: np.ndarray) -> bool:
    """Whether every row of a equals sum_k row[pivots[k]] u_k / s_k, as the
    one integer product L a == a[:, pivots] @ ((L / s) u), L the lcm of the
    s_k, run in int64 or in Python ints by the bound of qq_rref."""
    scale = lcm(*s.tolist())
    dtype = coef_dtype(len(pivots) * max_abs(a) * scale * max_abs(u))
    a, u, s = (x.astype(dtype, copy=False) for x in (a, u, s))
    return np.array_equal(a[:, pivots] @ (u * (scale // s)[:, None]), scale * a)


def qq_rref(rows) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduced row echelon form over Q, scaled to integers: (u, s, pivots).

    RREF row k is u[k] / s[k], u[k] a primitive integer row and
    s[k] = u[k, pivots[k]] > 0; u and s are int64, or object arrays once an
    entry of u reaches EXACT_BOUND.  rows is an int64 or object ndarray, or
    rational rows that integer_rows scales to integers: the matrix A.

    A mod p is brought to reduced echelon form R_p by ModpEchelon.  Each
    entry of R_p is lifted to a rational n/d by rational reconstruction;
    when a lift does not exist, or the lifted R fails the check below, the
    residues of one more prime are combined by CRT and the lift is tried
    again.  A prime whose echelon has lower rank, or the same rank with
    later pivots, than one seen before divides a minor of A and is skipped.

    The lifted R is accepted only when every row a of A equals
    sum_j a[pivot_j] R_j exactly, that is, with L the lcm of the s_k, when
    L A == A[:, pivots] @ ((L / s) u).  Each entry of (L / s_k) u_k is at
    most L max|u|, so L A and every partial sum of the product are at most
    #pivots max|A| L max|u|; the product runs in int64 when that bound is
    below EXACT_BOUND, and in Python ints otherwise.  Why the check makes R
    exact: it gives row(A) in row(R).  R has the identity in its pivot
    columns, so its rows are independent, and rank_Q(A) >= rank_p(A) =
    #rows of R; hence row(A) = row(R).  R is in reduced row echelon form by
    construction (a zero residue lifts to 0), and a row space has exactly
    one such basis, so R is the RREF of A over Q.  A wrong lift can fail
    the check, never pass it.
    """
    if not isinstance(rows, np.ndarray):
        rows = integer_rows(rows)
        rows = np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if rows else 0)
    a = _tight(rows[(rows != 0).any(axis=1)])
    if len(a) <= 1:  # nothing to eliminate: the row over its gcd, positive at its pivot
        pivots = [int(np.flatnonzero(row)[0]) for row in a]
        lead = a[np.arange(len(a)), pivots]
        u = _tight(a // (np.gcd.reduce(a, axis=1) * np.sign(lead))[:, None])
        return u, u[np.arange(len(u)), pivots], pivots
    ncols = a.shape[1]
    best: Optional[tuple[list[int], np.ndarray, int]] = None  # pivots, residues, modulus
    limit = None
    for tried, p in enumerate(_primes()):
        if limit is not None and tried > limit:
            raise ArithmeticError("the RREF lift needed more primes than the Hadamard bound")
        ech = ModpEchelon(ncols, p)
        ech.add(_mod(a, p))
        pivots = ech.pivots.tolist()
        if best is None or (-len(pivots), pivots) < (-len(best[0]), best[0]):
            best = (pivots, ech.basis, p)
        elif pivots == best[0]:
            _, res, m = best
            res = res.astype(object)
            step = _mod((ech.basis.astype(object) - res) * pow(m, -1, p), p)
            best = (pivots, res + m * step, m * p)
        else:
            continue
        lift = _rational_lift(best[1], best[2])
        if lift is not None:
            u = _scaled_rows(*lift)
            s = u[np.arange(len(u)), pivots]
            if _is_lift(a, pivots, u, s):
                return u, s, pivots
        if limit is None:
            # every minor is at most H = prod |row| < 2^bits: at most bits/30
            # primes above 2^30 divide a nonzero one, and a CRT modulus
            # above 2 H^2 lifts every RREF entry
            norms = (a.astype(object) ** 2).sum(axis=1).tolist()
            bits = sum((n.bit_length() + 1) // 2 for n in norms)
            limit = (3 * bits + 1) // 30 + 2
    raise ArithmeticError("the primes below 2^31 are exhausted")


def qq_rank(rows) -> int:
    return len(qq_rref(rows)[2])


def qq_kernel(rows, ncols: Optional[int] = None) -> np.ndarray:
    """Basis of the right kernel {x : m x = 0}, one integer row per basis
    vector: for each free column f of the RREF R, e_f - sum_k R[k, f]
    e_pivots[k] times the lcm D_f of its denominators, which makes it
    primitive.  With L the lcm of the s_k, L e_f - sum_k (L / s_k) u[k, f]
    e_pivots[k] is that row times L / D_f, so it is divided by its gcd."""
    if ncols is None:
        ncols = len(rows[0]) if len(rows) else 0
    if not len(rows):
        return np.eye(ncols, dtype=np.int64)
    u, s, pivots = qq_rref(rows)
    scale = lcm(*s.tolist())
    dtype = coef_dtype(scale * max_abs(u))
    free = np.delete(np.arange(ncols), pivots)
    out = np.zeros((len(free), ncols), dtype=dtype)
    out[np.arange(len(free)), free] = scale
    out[:, pivots] = -(u[:, free].astype(dtype) * (scale // s.astype(dtype))[:, None]).T
    return _tight(out // np.gcd.reduce(out, axis=1, keepdims=True))


def distinct_primitive_rows(a: np.ndarray) -> np.ndarray:
    """The nonzero rows of an integer matrix, each divided by the gcd of its
    entries and signed so that its first nonzero entry is positive, each
    once in the order of first appearance: the same row space, hence the
    same kernel, in fewer rows."""
    a = a[(a != 0).any(axis=1)]
    g = np.gcd.reduce(a, axis=1)
    lead = a[np.arange(len(a)), (a != 0).argmax(axis=1)]
    a = a // np.where(lead < 0, -g, g)[:, None]
    rows = dict.fromkeys(map(tuple, a.tolist()))
    return np.array(list(rows), dtype=a.dtype).reshape(len(rows), a.shape[1])


# ---------------------------------------------------------------------------
# prime-field elimination

_LIMB_BITS = 16
_EXACT_INNER = 1 << 21  # limb products are < 2^32; 2^21 of them sum below 2^53
ECHELON_BLOCK = 64  # rows eliminated, and cleared from X, per step of ModpEchelon
_KERNEL_CELLS = 1 << 16  # kernel-row cells add_outer builds at once

# modp_ranks and modp_kernel eliminate a matrix of more than ECHELON_CELLS
# cells alone.  Per matrix at DEFAULT_PRIME, full 2^17-cell stacks against
# the echelon, which skips the rank deficiency of pencil matrices (2-CPU
# VM, numpy 2.4):                               stacked  echelon
#   64x64, random                               0.6 ms   1.7 ms
#   105x81, the SO m=5 hook pencil              1.7 ms   2.1 ms
#   100x100, random                             2.4 ms   2.7 ms
#   126x84, the Koszul pencil L^3 -> L^4 of C^9 3.0 ms   2.5 ms
#   128x128, random                             5.5 ms   4.6 ms
#   181x181, random (4 to a stack)               21 ms   7.5 ms
ECHELON_CELLS = 10_000


def modp_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p, in [0, p) as int64, of integer-valued int64 or float64
    matrices, exact on float64 BLAS.

    One product is exact when k max|a| max|b| < 2^53 (k the inner
    dimension), as every partial sum is then an integer below 2^53.
    Otherwise operands outside [0, p) are reduced, and if the bound still
    fails they are split into 16-bit limbs.  When the inner dimension is
    short, k max|a| (2^16 - 1) < 2^53 (k <= 64 for residues of
    DEFAULT_PRIME), only b is split: two products of a with its limbs.
    Otherwise both are: limb products are below 2^32, so sums of 2^21 of
    them are exact, and the chunks are recombined mod p.
    """
    a, b = np.asarray(a), np.asarray(b)
    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    if not a.size or not b.size:
        return np.zeros((m, n), dtype=np.int64)
    (alo, ahi), (blo, bhi) = ((int(x.min()), int(x.max())) for x in (a, b))
    ra, rb = max(ahi, -alo), max(bhi, -blo)
    if k * ra * rb >= 1 << 53:
        (a, ra), (b, rb) = _residues(a, alo, ahi, p), _residues(b, blo, bhi, p)
    if k * ra * rb < 1 << 53:
        return _mod((a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
                     ).astype(np.int64), p)
    mask = (1 << _LIMB_BITS) - 1
    if k * ra * mask < 1 << 53:
        af = a.astype(np.float64, copy=False)
        lo = (af @ (b & mask).astype(np.float64)).astype(np.int64)
        hi = (af @ (b >> _LIMB_BITS).astype(np.float64)).astype(np.int64)
        return _mod(lo + (_mod(hi, p) << _LIMB_BITS), p)  # below 2^53 + 2^47
    out = np.zeros((m, n), dtype=np.int64)
    for s in range(0, k, _EXACT_INNER):
        ac, bc = a[:, s : s + _EXACT_INNER], b[s : s + _EXACT_INNER]
        ac = np.concatenate([ac & mask, ac >> _LIMB_BITS])
        bc = np.concatenate([bc & mask, bc >> _LIMB_BITS], axis=1)
        c = (ac.astype(np.float64) @ bc.astype(np.float64)).astype(np.int64)
        # [[lo lo, lo hi], [hi lo, hi hi]]; the sum stays below 2^63
        c = (c[:m, :n] + (_mod(c[:m, n:] + c[m:, :n], p) << _LIMB_BITS)
             + _mod(c[m:, n:], p) * (2 ** (2 * _LIMB_BITS) % p))
        out = _mod(out + c, p)
    return out


def _residues(x: np.ndarray, lo: int, hi: int, p: int) -> tuple[np.ndarray, int]:
    """x in [0, p) as int64 and its largest entry bound, from its extremes."""
    x = x.astype(np.int64, copy=False)
    return (x, hi) if 0 <= lo and hi < p else (_mod(x, p), p - 1)


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RREF of a few residue rows, row by row: the pivot rows, their pivot
    columns and the index of the row each came from.

    Row i has been cleared of the pivots of the rows before it, so it is
    zero exactly when it depends on them; otherwise its first nonzero entry
    is the next pivot, scaled to 1 and cleared from every other row.  The
    rows reported are thus those independent of the rows before them: the
    lexicographically first maximal independent subset."""
    live = np.flatnonzero(a.any(axis=1))  # a zero row stays zero
    a = a[live]
    source, pivots = [], []
    for i in range(len(a)):
        row = a[i]
        c = int((row != 0).argmax())
        if not row[c]:
            continue
        row = _mod(row * pow(int(row[c]), -1, p), p)
        f = a[:, c].copy()
        f[i] = 0
        a -= f[:, None] * row
        a = _mod(a, p)
        a[i] = row
        source.append(i)
        pivots.append(c)
    return a[source], np.array(pivots, dtype=np.int64), live[source]


_BASE_ROWS = 16  # _eliminate hands blocks of at most this many rows to _gauss_jordan


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gauss_jordan's (rows, pivots, source) of residue rows, by recursive
    halving (Dumas, Pernet and Sultan, ISSAC 2013): the top half is brought
    to RREF T, the bottom half is reduced by T with one product and
    eliminated on the columns T leaves, into B, and T is cleared of B's
    pivots with one more product.  Each bottom row is reduced by every row
    above it, as in _gauss_jordan, so the same rows raise the rank with the
    same pivots, and the RREF of their span is unique."""
    if len(a) <= _BASE_ROWS:
        return _gauss_jordan(a, p)
    half = len(a) // 2
    top, tpiv, tsrc = _eliminate(a[:half], p)
    rest = np.ones(a.shape[1], dtype=bool)
    rest[tpiv] = False
    low = a[half:, rest]
    if tpiv.size:  # T[:, tpiv] = I
        low = _mod(low - modp_matmul(a[half:, tpiv], top[:, rest], p), p)
    bot, bpiv, bsrc = _eliminate(low, p)
    bpiv = np.flatnonzero(rest)[bpiv]
    rows = np.zeros((len(bot), a.shape[1]), dtype=np.int64)
    rows[:, rest] = bot
    if bpiv.size:  # B[:, bpiv] = I and B[:, tpiv] = 0
        top = _mod(top - modp_matmul(top[:, bpiv], rows, p), p)
    return (np.concatenate([top, rows]), np.concatenate([tpiv, bpiv]),
            np.concatenate([tsrc, half + bsrc]))


class ModpEchelon:
    """The reduced row echelon form over F_p of a growing set of rows.

    Only the free-column block is stored: the pivot columns `_piv`, the free
    columns `_free` (increasing) and X = basis[:, _free], row k of X the
    basis row with pivot `_piv[k]`.  `basis` (rows sorted by pivot column,
    so basis[:, pivots] is the identity) and `pivots` are built when read.

    New rows are first reduced into free coordinates, y = row[free] -
    row[piv] @ X, which is row @ K^T for the kernel rows K of kernel().
    `add` does this with one exact product per call; `add_outer` takes the
    rows f_i (x) u_j of two factors without forming them, as F (K (I (x)
    U^T)), built a chunk of free columns of K at a time.  Both then insert
    y in blocks of ECHELON_BLOCK rows: a block is reduced by the pivots
    added since the call began with one product, eliminated by _eliminate
    into N, the new pivots are cleared from X with one more, X[:, new] @
    N[:, keep], and N's rows are appended.  A block is reduced only when its
    turn comes, so at the fewest free columns: clearing every later row
    after each block instead took 26 against 20 ms for a 512x252 rank of
    random residues at DEFAULT_PRIME (2-CPU VM, numpy 2.4).
    Every reduction mod p is _mod.
    """

    def __init__(self, ncols: int, p: int) -> None:
        self.p = p
        self._piv = np.zeros(0, dtype=np.int64)
        self._free = np.arange(ncols)
        self._x = np.zeros((0, ncols), dtype=np.int64)

    @property
    def pivots(self) -> np.ndarray:
        return np.sort(self._piv)

    @property
    def basis(self) -> np.ndarray:
        order = np.argsort(self._piv)
        out = np.zeros((order.size, self._piv.size + self._free.size), dtype=np.int64)
        out[:, self._free] = self._x[order]
        out[np.arange(order.size), self._piv[order]] = 1
        return out

    def add(self, rows) -> list[int]:
        """Add the rows; returns the indices of those that raised the rank,
        each independent of the rows added before it: the lexicographically
        first maximal subset independent modulo the earlier rows."""
        rows = _mod(np.asarray(rows, dtype=np.int64), self.p)
        if self._piv.size:  # otherwise every column is free
            rows = _mod(rows[:, self._free] - modp_matmul(rows[:, self._piv], self._x, self.p),
                        self.p)
        return self._insert(rows)

    def add_outer(self, f: np.ndarray, u: np.ndarray) -> list[int]:
        """add of the rows f_i (x) u_j, i-major, for residue rows f_i of
        length c and u_j of length b, c b the number of columns: the row of
        (i, j) is the flattened outer product f_i u_j^T.

        Row (i, j) in free coordinates is f_i^T K_g u_j in free column g,
        K_g the kernel row of g read as a c x b matrix.  The rows are formed
        only while no pivot is known, when they are their own free
        coordinates."""
        (kf, c), (ku, b) = f.shape, u.shape
        if not self._piv.size:
            return self.add((f[:, None, :, None] * u[None, :, None, :]).reshape(-1, c * b))
        nf, p = self._free.size, self.p
        y = np.empty((kf, ku, nf), dtype=np.int64)
        step = max(1, _KERNEL_CELLS // (c * b))
        for s in range(0, nf, step):
            k = self._kernel_rows(s, s + step)
            # K_g u_j for every free column g and every j, then f_i^T of each
            ku_g = modp_matmul(k.reshape(-1, b), u.T, p).reshape(len(k), c, ku)
            fku = modp_matmul(f, ku_g.transpose(1, 0, 2).reshape(c, -1), p)
            y[:, :, s : s + step] = fku.reshape(kf, len(k), ku).transpose(0, 2, 1)
        return self._insert(y.reshape(kf * ku, nf))

    def _insert(self, y: np.ndarray) -> list[int]:
        """Insert rows in the free coordinates the echelon has on entry;
        returns those that raised the rank, as add."""
        p, raised = self.p, []
        cols, start = self._free, self._piv.size  # y's columns; X's rows from here are new
        for s in range(0, len(y), ECHELON_BLOCK):
            block = y[s : s + ECHELON_BLOCK]
            if self._piv.size > start:  # reduce by the pivots added since entry
                added = np.searchsorted(cols, self._piv[start:])
                block = _mod(block[:, np.searchsorted(cols, self._free)]
                             - modp_matmul(block[:, added], self._x[start:], p), p)
            n, new, source = _eliminate(block, p)
            raised += (s + source).tolist()
            if not new.size:
                continue
            keep = np.ones(self._free.size, dtype=bool)
            keep[new] = False
            n = n[:, keep]
            # N[:, new] = I, so this clears the new pivot columns of X
            x = _mod(self._x[:, keep] - modp_matmul(self._x[:, new], n, p), p)
            self._x = np.concatenate([x, n])
            self._piv = np.concatenate([self._piv, self._free[new]])
            self._free = self._free[keep]
        return raised

    def _kernel_rows(self, lo: int, hi: int) -> np.ndarray:
        """The kernel rows e_f - sum_k X[k, f] e_piv(k) of the free columns
        f = _free[lo:hi]."""
        free = self._free[lo:hi]
        out = np.zeros((free.size, self._free.size + self._piv.size), dtype=np.int64)
        out[np.arange(free.size), free] = 1
        out[:, self._piv] = _mod(-self._x[:, lo:hi].T, self.p)
        return out

    def kernel(self) -> np.ndarray:
        """Right kernel basis: the row e_f - sum_k X[k, f] e_piv(k) for each
        free column f, in increasing order."""
        return self._kernel_rows(0, self._free.size)


def _echelon(a: np.ndarray, p: int) -> ModpEchelon:
    """The echelon of the rows of one matrix."""
    ech = ModpEchelon(np.shape(a)[1], p)
    ech.add(a)
    return ech


def modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: (nonzero rows, pivot columns)."""
    ech = _echelon(a, p)
    return ech.basis, ech.pivots.tolist()


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p of one matrix: the rows that raise the echelon's rank."""
    return len(ModpEchelon(np.shape(a)[1], p).add(a))


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise: the inverse of each unit, and 0 for 0."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = _mod(out * x, p)
        x, e = _mod(x * x, p), e >> 1
    return out


# the narrowest first: 2(p-1)^2 < 2^7 for p <= 7, < 2^15 for p <= 127, < 2^31
# for p <= 32749 and < 2^63 for every p < 2^31
_STACK_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _forward(a: np.ndarray, p: int, keep_rows: bool):
    """Forward elimination of an (N, m, n) integer stack, column by column:
    the rank of each matrix and, when keep_rows, the (n, n, N) int64 array
    whose [c, :, i] is the pivot row of column c of matrix i mod p.  Where
    c has no pivot, its diagonal entry [c, c, i] is 0 and the rest of the
    row is arbitrary: modp_kernel scales each kept row by the inverse of
    its diagonal, which is 0 for 0.

    The stack is reduced once and stored column-major with the stack index
    innermost, as (n, m, N): the column being eliminated is the contiguous
    (m, N) slab a[0], the pivot rows are gathered into one contiguous
    (n - c - 1, N) array, and the update runs over the contiguous a[1:],
    each of its numpy loops along the N matrices.  Each step drops its
    column, so `a` holds the columns not yet eliminated.  Each matrix picks
    its own pivot among the rows it has not used yet and clears that column
    from its other rows with the inverse-free update
    row <- pivot*row - a_ic*pivot_row, where a_ic is taken as 0 in the rows
    it has used; a matrix without a pivot in the column keeps its rows.
    Scaling a row by a unit keeps the rank and the row space.

    The steps are ring operations on integers, so only the pivot column is
    reduced, to test pivots, until the next update could overflow.  Every
    reduction is _mod, which leaves residues in [0, p), so |entry| <= p-1
    holds again after it.  With pivot and a_ic in [0, p) and |entries| <= B,
    an update leaves them at most 2(p-1)B in absolute value, so `a` is
    reduced again once 2(p-1)B reaches the limit of its dtype.  The dtype
    depends on p alone: the narrowest of _STACK_DTYPES in which one update
    of residues fits, 2(p-1)^2 below its limit: int8 (limit 2^7) for
    p <= 7, int16 (2^15) for p <= 127, int32 (2^31) for p <= 32749 and
    int64 (2^63) otherwise, where 2(p-1)^2 < 2^63 for p < 2^31.
    """
    count, m, ncols = a.shape
    dtype = next(t for t in _STACK_DTYPES if 2 * (p - 1) ** 2 < 1 << (np.iinfo(t).bits - 1))
    limit = 1 << (np.iinfo(dtype).bits - 1)
    a = np.array(_mod(a, p).transpose(2, 1, 0), dtype=dtype, order="C")
    if m == 0:  # no rows: rank 0, no pivots
        a = np.zeros((ncols, 1, count), dtype=dtype)
        m = 1
    mats = np.arange(count)
    used = np.zeros((m, count), dtype=bool)
    rows = np.zeros((ncols, ncols, count), dtype=np.int64) if keep_rows else None
    bound = p - 1  # on |entry| of a
    for c in range(ncols):
        col = _mod(a[0], p)
        col[used] = 0
        piv = (col != 0).argmax(axis=0)
        pivot = col[piv, mats]
        found = pivot != 0
        a = a[1:]
        prow = np.ascontiguousarray(a[:, piv, mats])
        if keep_rows:
            rows[c, c] = pivot
            rows[c, c + 1:] = _mod(prow, p)
        col[piv, mats] = 0
        a *= pivot + ~found  # a matrix without a pivot keeps its rows
        a -= col * prow[:, None]
        bound *= 2 * (p - 1)
        if 2 * (p - 1) * bound >= limit:  # the next update could overflow
            a = _mod(a, p)
            bound = p - 1
        used[piv, mats] |= found
    return used.sum(axis=0), rows


def modp_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of each matrix in an (N, m, n) stack: one at a time by
    modp_rank when m n > ECHELON_CELLS, and otherwise all at once by the
    forward elimination of _forward on the side with fewer columns."""
    a = np.asarray(stack, dtype=np.int64)
    if a.shape[1] * a.shape[2] > ECHELON_CELLS:
        return np.array([modp_rank(x, p) for x in a], dtype=np.int64)
    if a.shape[2] > a.shape[1]:  # fewer columns, fewer steps
        a = a.transpose(0, 2, 1)
    return _forward(a, p, keep_rows=False)[0]


def modp_kernel(stack: np.ndarray, p: int) -> list[np.ndarray]:
    """Right kernel basis mod p of each matrix in an (N, m, n) stack, as
    rows of an int64 array: the row e_f - sum_r R[r, f] e_pivot(r) for
    each free column f of the RREF R.

    When m n > ECHELON_CELLS each matrix is eliminated alone by
    ModpEchelon, on BLAS products.  Otherwise the stack gives the same
    bases at once: _forward keeps the pivot row of each column, and a
    stacked back substitution scales each to a leading 1 and clears its
    column from the rows above, which leaves R in the pivot rows.  The
    back substitution keeps _forward's layout, the stack innermost,
    (n, n, N).
    """
    a = np.asarray(stack, dtype=np.int64)
    if a.shape[1] * a.shape[2] > ECHELON_CELLS:
        return [_echelon(x, p).kernel() for x in a]
    _, u = _forward(a, p, keep_rows=True)
    n = a.shape[2]
    diag = np.arange(n)
    u = _mod(u * _inverse_mod(u[diag, diag], p)[:, None], p)
    for c in range(n - 1, 0, -1):
        u[:c, c:] = _mod(u[:c, c:] - u[:c, c, None] * u[c, None, c:], p)
    # row f of (I - R) is e_f - R[:, f] for a free column f, where R[f] = 0
    ker = _mod(np.eye(n, dtype=np.int64)[:, :, None] - u, p).transpose(2, 1, 0)
    return [k[d == 0] for k, d in zip(ker, u[diag, diag].T)]


# ---------------------------------------------------------------------------
# canonical subspaces


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F_p^n in canonical form: its RREF basis rows,
    with entries in [0, p).  Equality of subspaces is equality of the data.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]
    p: int

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence], ambient_dim: int, p: int) -> "Subspace":
        check_prime(p)
        vecs = vectors if isinstance(vectors, np.ndarray) else list(vectors)
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient_dim")
        rref = modp_rref(mat_mod(vecs, p), p)[0].tolist() if len(vecs) else []
        return Subspace(ambient_dim, tuple(map(tuple, rref)), p)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient_dim")
        return self._spans(mat_mod([v], self.p))

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise ValueError("subspaces live in different ambient spaces")
        return self._spans(np.array(other.basis, dtype=np.int64).reshape(-1, self.ambient_dim))

    def _spans(self, rows: np.ndarray) -> bool:
        """Whether every row (in [0, p)) lies in the span.  basis[:, pivots]
        is the identity, so v lies in it exactly when v = v[pivots] @ basis."""
        basis = np.array(self.basis, dtype=np.int64).reshape(-1, self.ambient_dim)
        pivots = (basis != 0).argmax(axis=1)
        return bool((modp_matmul(rows[:, pivots], basis, self.p) == rows).all())
