"""Exact dense linear algebra over Q and over prime fields F_p.

Every input is integer.  Matrices over Q are integer numpy arrays, int64
while no value a step forms can reach EXACT_BOUND and Python ints in object
arrays otherwise, or rows of Python ints.  Prime-field matrices are
int64 arrays with entries reduced into [0, p), p an odd prime below 2**31,
so that products of two residues fit in int64 (the stacked loop's stacks
hold them in the narrower stack_dtype(p)); the F_p entry points read
them through _reduced, which reduces Python ints of any size exactly and
refuses what an int64 cast would truncate.  _mod is the one reduction of
an integer array, x - (x // p) p, which numpy runs on libdivide.
modp_matmul is the one product mod p of two matrices, exact on float64
BLAS; stack_product is the one of a pencil's coefficients with a block of
points, written into a stack's buffers.  The
eliminations call modp_matmul's core _product, which takes residues and picks its
path from the inner dimension k and p alone, without scanning them: one
product while k (p-1)^2 < 2^53, two limbs of b while k (p-1) (2^16 - 1)
< 2^53, four limbs otherwise.  It returns (minus - a b) mod p, or a b
mod p, with one final reduction, so an elimination step that subtracts a
product reduces once.

Over F_p there are two eliminations, and _eliminate is the kernel of
every matrix that is not in a stack of small ones.  modp_ranks and
modp_kernel take an (N, m, n) stack and choose by matrix size: a matrix of
more than ECHELON_CELLS cells is eliminated alone by _eliminate, smaller
ones together by the stacked loop.
  - the stacked forward loop (_forward): one vectorized pass over a stack
    of small matrices in one layout, column-major with the stack
    innermost, (n, m, N), so that each step reads one contiguous slab and
    each numpy loop of its update runs along the N matrices of the stack
    rather than the m rows of one matrix.  The exhaustive runs rank
    hundreds of 14x14 matrices per stack, where a run of 14 entries cost
    more in loop overhead than in arithmetic.  Its entries are those of
    stack_dtype(p), the narrowest of int8, int16, int32 and int64 that
    holds one update of residues, 2(p-1)^2 (int8 for p <= 7, int16 for
    p <= 127, int32 for p <= 32749), so the small primes of exhaustive
    runs move an eighth to a half of the bytes of int64.  It eliminates
    the stack in place, reducing only when the next step could overflow,
    and writes each step's product and reduction into one scratch array.
    Pencil.evaluate_modp writes each evaluated stack in this layout, on
    the side with fewer columns, reduced once by stack_product into
    buffers that analysis allocates once per call (stack_buffers) and
    refills for each stack of up to 2^17 cells (analysis.STACK_CELLS), so
    neither its ranks nor its kernels reduce or transpose it again;
    modp_ranks and modp_kernel copy a stack of any other form into it;
  - recursive halving (_eliminate), which leaves _gauss_jordan's
    row-by-row elimination to blocks of at most 16 rows.  A matrix met
    once is eliminated by it directly, its rows then sorted by pivot
    (_rref): each prime of the qq_rref lift, modp_rank, modp_rref and so
    Subspace, and the large matrices of modp_ranks and modp_kernel.
    ModpEchelon serves the one growing system, the neutral-direction
    constraints: it keeps the free-column block of the RREF and inserts
    rows in blocks of ECHELON_BLOCK, each reduced by the pivots added
    before it with one product and eliminated by _eliminate; add_outer
    takes the outer-product rows of the constraints without forming them.

Over Q there is one elimination: qq_rref lifts the RREF mod p to Q,
checks it with one integer product, and returns it as (u, s, pivots), row
k the primitive integer row u[k] over s[k] = u[k, pivots[k]] > 0.  Every
exact rank (qq_rank) and integer kernel (qq_kernel, hence every
contraction kernel of the modules) goes through it.
distinct_primitive_rows drops the rows of an integer matrix that repeat
another up to a scalar before its kernel is taken.

Subspace holds the canonical (RREF) basis of a row space over F_p, built
from integer vectors.  The neutral-direction solve builds one, for the space
it reports; the span's dimension is a modp_rank, its rounds read the echelon.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _reduced(rows, p: int) -> np.ndarray:
    """Integer rows mod p, in [0, p) as int64, refusing what an int64 cast
    would truncate (TypeError): integer arrays and the integer floats of
    coeff_array_modp are cast and reduced, and rows of Python ints of any
    size are reduced exactly before the cast: numpy reads ints past int64
    as objects, or as uint64 or floats, which are read again as objects."""
    a = np.asarray(rows)
    if a.dtype.kind in "uf" and not isinstance(rows, np.ndarray):
        exact = np.array(rows, dtype=object)
        a = exact if all(type(x) is int for x in exact.flat) else a
    if a.dtype == object:
        if not all(type(x) is int for x in a.flat):
            raise TypeError("the F_p eliminations take integer entries only")
        return _mod(a, p).astype(np.int64)
    if not (np.can_cast(a.dtype, np.int64) or a.dtype.kind == "f" and bool(
            (np.abs(a) < 2.0 ** 63).all() and (a == np.floor(a)).all())):  # NaN fails
        raise TypeError("the F_p eliminations take integer entries only")
    return _mod(a.astype(np.int64, copy=False), p)


def _mod(x, p: int, out: Optional[np.ndarray] = None):
    """x mod p entrywise, in [0, p): x - (x // p) p, formed in place in the
    quotient array, a new one of x's dtype or `out`, an integer array of
    x's shape whose dtype may be narrower.  numpy divides by a scalar on
    libdivide, which makes this several times faster than its `%`.  It is
    exact on fixed-width integers too: the result lies in [0, p), so a
    two's-complement wrap of (x // p) p, in x's dtype or in out's, cancels
    in the difference.  Python ints (object arrays) are exact."""
    r = np.floor_divide(x, p, out=np.empty_like(x) if out is None else out, casting="unsafe")
    r *= p
    return np.subtract(x, r, out=r, casting="unsafe")


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> np.ndarray:
    """x mod p in place, in [0, p), with scratch, an array of x's shape and
    dtype, holding (x // p) p; returns x."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch
    return x


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
    entry of u reaches EXACT_BOUND.  rows is the integer matrix A: an int64
    or object ndarray, or rows of Python ints (any other entry: TypeError).

    A mod p is brought to reduced echelon form R_p by _rref.  Each
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
        if not all(type(x) is int for row in rows for x in row):
            raise TypeError("qq_rref takes integer entries only")
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
        rref, pivots = _rref(_mod(a, p).astype(np.int64, copy=False), p)  # residues below p
        pivots = pivots.tolist()
        if best is None or (-len(pivots), pivots) < (-len(best[0]), best[0]):
            best = (pivots, rref, p)
        elif pivots == best[0]:
            _, res, m = best
            res = res.astype(object)
            step = _mod((rref.astype(object) - res) * pow(m, -1, p), p)
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
_KERNEL_CELLS = 1 << 16  # add_outer: free-coordinate cells of a group, kernel-row cells at once

# modp_ranks and modp_kernel eliminate a matrix of more than ECHELON_CELLS
# cells alone, by _rref.  Per matrix at DEFAULT_PRIME, full 2^17-cell
# stacks against _rref (2-CPU VM, numpy 2.4, minimum of interleaved
# repeats):                                     stacked  _rref
#   64x64, random                               0.65 ms  1.2 ms
#   105x81, the SO m=5 hook pencil              1.9 ms   1.9 ms
#   100x100, random                             2.5 ms   2.6 ms
#   126x84, the Koszul pencil L^3 -> L^4 of C^9 2.6 ms   2.0 ms
#   240x45, the GL (2) -> (2,1) pencil at v=9   1.5 ms   2.8 ms
#   128x128, random                             6.4 ms   3.6 ms
#   181x181, random (4 to a stack)               23 ms   7.4 ms
ECHELON_CELLS = 10_000


def modp_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p, in [0, p) as int64, of integer-valued int64 or float64
    matrices, exact on float64 BLAS.

    One product is exact when k max|a| max|b| < 2^53 (k the inner
    dimension), as every partial sum is then an integer below 2^53, and it
    is reduced once.  Otherwise an operand whose extremes leave [0, p) is
    reduced, and _product takes the residues.
    """
    a, b = np.asarray(a), np.asarray(b)
    (alo, ahi), (blo, bhi) = ((int(x.min(initial=0)), int(x.max(initial=0))) for x in (a, b))
    if a.shape[1] * max(ahi, -alo) * max(bhi, -blo) < 1 << 53:
        return _mod(_blas(a, b), p)
    return _product(_residues(a, alo, ahi, p), _residues(b, blo, bhi, p), p)


def _residues(x: np.ndarray, lo: int, hi: int, p: int) -> np.ndarray:
    """x in [0, p) as int64, reduced only when its extremes leave it."""
    x = x.astype(np.int64, copy=False)
    return x if 0 <= lo and hi < p else _mod(x, p)


def _blas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on float64 BLAS, as int64: exact while every sum is below 2^53."""
    return (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.int64)


def _product(a: np.ndarray, b: np.ndarray, p: int,
             minus: Optional[np.ndarray] = None) -> np.ndarray:
    """(minus - a @ b) mod p, or a @ b mod p without minus, in [0, p) as
    int64, of int64 residues a and b; minus is an int64 array of the
    product's shape, entries in (-p, p).  The path is chosen by k (the
    inner dimension) and p alone, with no scan of the operands, and the
    difference from minus is reduced once, with the product (the delayed
    reduction of FFLAS, Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
      - one product when k (p-1)^2 < 2^53;
      - two limbs when k (p-1) (2^16 - 1) < 2^53 (k <= 64 at
        DEFAULT_PRIME): products of a with the 16-bit limbs of b, the high
        one reduced before it is shifted, which leaves the sum below
        2^53 + 2^47;
      - four limbs otherwise: both operands split, limb products below
        2^32, so sums of _EXACT_INNER = 2^21 of them are exact; per chunk
        of the inner dimension the cross and high sums are reduced, and the
        sum stays below 2^62 + 2^54.
    """
    k, r, mask = a.shape[1], p - 1, (1 << _LIMB_BITS) - 1
    if k * r * r < 1 << 53:
        c = _blas(a, b)
    elif k * r * mask < 1 << 53:
        af = a.astype(np.float64)
        c = _blas(af, b & mask) + (_mod(_blas(af, b >> _LIMB_BITS), p) << _LIMB_BITS)
    else:
        m, n, c = a.shape[0], b.shape[1], 0
        for s in range(0, k, _EXACT_INNER):
            ac, bc = a[:, s : s + _EXACT_INNER], b[s : s + _EXACT_INNER]
            limbs = _blas(np.concatenate([ac & mask, ac >> _LIMB_BITS]),
                          np.concatenate([bc & mask, bc >> _LIMB_BITS], axis=1))
            # [[lo lo, lo hi], [hi lo, hi hi]]; c from an earlier chunk is reduced
            c = (_mod(c, p) if s else c) + limbs[:m, :n] + (
                _mod(limbs[:m, n:] + limbs[m:, :n], p) << _LIMB_BITS) + (
                _mod(limbs[m:, n:], p) * (2 ** (2 * _LIMB_BITS) % p))
    return _mod(c if minus is None else minus - c, p)


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
        low = _product(a[half:, tpiv], top[:, rest], p, minus=low)
    bot, bpiv, bsrc = _eliminate(low, p)
    bpiv = np.flatnonzero(rest)[bpiv]
    rows = np.zeros((len(bot), a.shape[1]), dtype=np.int64)
    rows[:, rest] = bot
    if bpiv.size:  # B[:, bpiv] = I and B[:, tpiv] = 0
        top = _product(top[:, bpiv], rows, p, minus=top)
    return (np.concatenate([top, rows]), np.concatenate([tpiv, bpiv]),
            np.concatenate([tsrc, half + bsrc]))


class ModpEchelon:
    """The reduced row echelon form over F_p of a growing set of rows.

    Only the free-column block is stored: the pivot columns `_piv`, the free
    columns `_free` (increasing) and X, row k of X the free columns of the
    basis row with pivot `_piv[k]`; `pivots` is sorted when read.

    New rows are first reduced into free coordinates, y = row[free] -
    row[piv] @ X, which is row @ K^T for the kernel rows K of kernel().
    `add_outer` takes the rows f_i (x) u_j of a sequence of factor pairs
    without forming them, as F (K (I (x) U^T)): in groups of pairs of at
    most _KERNEL_CELLS cells of free coordinates, each making one product
    of K with the U of all its pairs and one with each F.  It then inserts
    y in blocks of ECHELON_BLOCK rows: a block is reduced by the pivots added since the
    call began with one product, skipped if it is then zero (so a group of
    rows the echelon already spans costs only its products), eliminated by
    _eliminate into N, the new pivots are cleared from X with one more,
    X[:, new] @ N[:, keep], and N's rows are appended.  A block is reduced
    only when its turn comes, so at the fewest free columns.  Each product
    is a _product of residues, and a difference from one is reduced once,
    with it.
    """

    def __init__(self, ncols: int, p: int) -> None:
        self.p = p
        self._piv = np.zeros(0, dtype=np.int64)
        self._free = np.arange(ncols)
        self._x = np.zeros((0, ncols), dtype=np.int64)

    @property
    def pivots(self) -> np.ndarray:
        return np.sort(self._piv)

    def add_outer(self, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[int]:
        """Add the rows f_i (x) u_j of each pair (f, u) in turn, i-major
        within a pair, for residue rows f_i of length c and u_j of length b,
        c b the number of columns: the row of (i, j) is the flattened outer
        product f_i u_j^T.  Returns the indices of the rows that raised the
        rank, counting the rows of all the pairs, concatenated: each is
        independent of the rows added before it, the lexicographically
        first maximal subset independent modulo the earlier rows.

        The pairs go in groups of at most _KERNEL_CELLS cells of free
        coordinates (at least one pair to a group), each taken into free
        coordinates by _outer_free and inserted.  _insert skips a block of
        rows that are all zero, so once the echelon holds every row to come,
        a group costs only its products."""
        pairs = [(f, u) for f, u in pairs if len(f) and len(u)]
        sizes = [len(f) * len(u) for f, u in pairs]
        raised, lo, start = [], 0, 0  # start: the group's first row over all the pairs
        while lo < len(pairs) and self._free.size:  # with no free column no row raises
            nf, hi, rows = self._free.size, lo + 1, sizes[lo]
            while hi < len(pairs) and (rows + sizes[hi]) * nf <= _KERNEL_CELLS:
                rows += sizes[hi]
                hi += 1
            raised += [start + i for i in self._insert(self._outer_free(pairs[lo:hi], rows))]
            lo, start = hi, start + rows
        return raised

    def _outer_free(self, pairs: list, nrows: int) -> np.ndarray:
        """The nrows rows f_i (x) u_j of the pairs, in free coordinates.

        Row (i, j) in free coordinates is f_i^T K_g u_j in free column g,
        K_g the kernel row of g read as a c x b matrix.  The kernel rows are
        built a chunk of free columns at a time, so that neither the chunk
        nor its product with the u's has more than _KERNEL_CELLS cells; each
        chunk makes one product with every u of the group and then one with
        each f.  The rows are formed only while no pivot is known, when they
        are their own free coordinates."""
        c, b = pairs[0][0].shape[1], pairs[0][1].shape[1]
        if not self._piv.size:
            return _mod(np.concatenate([(f[:, None, :, None] * u[None, :, None, :])
                                        .reshape(-1, c * b) for f, u in pairs]), self.p)
        nf, p = self._free.size, self.p
        us = np.concatenate([u for _, u in pairs])
        y = np.empty((nrows, nf), dtype=np.int64)
        step = max(1, _KERNEL_CELLS // (c * max(b, len(us))))
        for s in range(0, nf, step):
            k = _kernel_basis(self._x[:, s : s + step], self._piv, self._free[s : s + step],
                              nf + self._piv.size, p)
            # K_g u_j for every free column g and every u_j of the group, as (c, g, j)
            ku_g = _product(k.reshape(-1, b), us.T, p).reshape(len(k), c, len(us))
            ku_g = ku_g.transpose(1, 0, 2)
            row = col = 0
            for f, u in pairs:
                kf, ku = len(f), len(u)
                fku = _product(f, ku_g[:, :, col : col + ku].reshape(c, -1), p)
                y[row : row + kf * ku].reshape(kf, ku, nf)[:, :, s : s + step] = (
                    fku.reshape(kf, len(k), ku).transpose(0, 2, 1))
                row, col = row + kf * ku, col + ku
        return y

    def kernel_contains(self, rows) -> bool:
        """Whether every row v lies in the right kernel.  Basis row k is
        e_piv(k) + sum_f X[k, f] e_f, so v does exactly when v[piv] + X
        v[free] = 0."""
        ncols = self._piv.size + self._free.size
        rows = _reduced(rows, self.p).reshape(-1, ncols)
        return not _product(rows[:, self._free], self._x.T, self.p,
                            minus=-rows[:, self._piv]).any()

    def _insert(self, y: np.ndarray) -> list[int]:
        """Insert rows in the free coordinates the echelon has on entry;
        returns those that raised the rank, as add_outer."""
        p, raised = self.p, []
        cols, start = self._free, self._piv.size  # y's columns; X's rows from here are new
        for s in range(0, len(y), ECHELON_BLOCK):
            block = y[s : s + ECHELON_BLOCK]
            if self._piv.size > start:  # reduce by the pivots added since entry
                added = np.searchsorted(cols, self._piv[start:])
                block = _product(block[:, added], self._x[start:], p,
                                 minus=block[:, np.searchsorted(cols, self._free)])
            if not block.any():  # every row depends on the rows before it
                continue
            n, new, source = _eliminate(block, p)
            raised += (s + source).tolist()
            if not new.size:
                continue
            keep = np.ones(self._free.size, dtype=bool)
            keep[new] = False
            n = n[:, keep]
            # N[:, new] = I, so this clears the new pivot columns of X
            x = _product(self._x[:, new], n, p, minus=self._x[:, keep])
            self._x = np.concatenate([x, n])
            self._piv = np.concatenate([self._piv, self._free[new]])
            self._free = self._free[keep]
        return raised

    def kernel(self) -> np.ndarray:
        """Right kernel basis: the row e_f - sum_k X[k, f] e_piv(k) for each
        free column f, in increasing order."""
        return _kernel_basis(self._x, self._piv, self._free,
                             self._piv.size + self._free.size, self.p)


def _kernel_basis(x: np.ndarray, piv: np.ndarray, free: np.ndarray, ncols: int,
                  p: int) -> np.ndarray:
    """The kernel rows e_f - sum_k x[k, j] e_piv[k], f = free[j], of an
    RREF whose row k has its pivot in column piv[k] and x[k] in the free
    columns."""
    out = np.zeros((free.size, ncols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, piv] = _mod(-x.T, p)
    return out


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of one matrix of residues, by _eliminate: its rows sorted
    by pivot column, and the pivot columns."""
    rows, pivots, _ = _eliminate(a, p)
    order = np.argsort(pivots)
    return rows[order], pivots[order]


def modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: (nonzero rows, pivot columns)."""
    rows, pivots = _rref(_reduced(a, p), p)
    return rows, pivots.tolist()


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p of one matrix."""
    return _rref(_reduced(a, p), p)[1].size


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


def stack_dtype(p: int) -> type:
    """The entry type of _forward's stacks: the narrowest of _STACK_DTYPES
    in which one update of residues fits, 2(p-1)^2 below its limit."""
    return next(t for t in _STACK_DTYPES if 2 * (p - 1) ** 2 < 1 << (np.iinfo(t).bits - 1))


def stack_layout(rows: int, cols: int, count: int) -> tuple[tuple, tuple]:
    """_forward's layout of count rows x cols matrices, on the side with
    fewer columns, the matrices themselves when cols <= rows and else their
    transposes: its (n, m, count) shape, column-major with the stack
    innermost, and the axes that view it as the (count, rows, cols) stack."""
    return ((rows, cols, count), (2, 0, 1)) if cols > rows else ((cols, rows, count), (2, 1, 0))


def stack_buffers(cells: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat buffers for stacks of up to `cells` cells: a float64 one for
    stack_product's scratch and one of stack_dtype(p) for the stack."""
    return np.empty(cells), np.empty(cells, dtype=stack_dtype(p))


def stack_product(c: np.ndarray, x: np.ndarray, p: int, f: np.ndarray,
                  e: np.ndarray) -> np.ndarray:
    """c @ x^T mod p, in [0, p), written into e and returned: c an
    integer-valued float64 (r, k) array, x an (N, k) int64 array, f a
    C-contiguous float64 (r, N) scratch array and e an (r, N) array of
    stack_dtype(p).  No other array of e's size is formed.

    x is reduced first when it leaves [0, p).  The product is one float64
    BLAS call while k max|c| max|x| < 2^53, as every partial sum is then
    an integer below 2^53.  Otherwise x is split into limbs of w bits, the
    most with k max|c| (2^w - 1) < 2^53, and their products are combined
    by Horner's rule, e <- e (2^w mod p) + c limb^T mod p, where e
    (2^w mod p) <= (p-1)^2 fits e's dtype.  Each product is reduced once,
    into e: when it fits e's dtype it is cast there and reduced in place,
    with f's memory as the quotient; otherwise it is read as int64 in f's
    own memory and reduced into e by _mod, whose wrap in e's dtype cancels.
    """
    lo, hi = int(x.min(initial=0)), int(x.max(initial=0))
    if lo < 0 or hi >= p:
        x = _mod(x, p)
        hi = int(x.max(initial=0))
    scale = c.shape[1] * max(int(c.max(initial=0)), -int(c.min(initial=0)))
    if scale * hi < 1 << 53:
        width, shifts = max(hi.bit_length(), 1), [0]
    else:
        width = (((1 << 53) - 1) // scale + 1).bit_length() - 1
        if not width:
            raise ValueError("the coefficients are too large for exact float64 products")
        shifts = list(range(0, hi.bit_length(), width))[::-1]
    fi = f.view(np.int64)
    limit = 1 << (8 * e.itemsize - 1)
    for j, shift in enumerate(shifts):
        limb = (x >> shift) & ((1 << width) - 1)
        np.matmul(c, np.ascontiguousarray(limb.T, dtype=np.float64), out=f)
        if not j and scale * (hi >> shift) < limit:
            np.copyto(e, f, casting="unsafe")
            _reduce(e, p, f.reshape(-1).view(e.dtype)[:e.size].reshape(e.shape))
            continue
        np.copyto(fi.reshape(-1), f.reshape(-1), casting="unsafe")  # in place, one pass
        if j:
            e *= (1 << width) % p
            fi += e
        _mod(fi, p, out=e)
    return e


def _forward(a: np.ndarray, p: int, keep_rows: bool):
    """Forward elimination of a stack in its layout, column by column: a is
    (n, m, N), column-major with the stack index innermost, [c, :, i]
    column c of matrix i, of stack_dtype(p) with |entries| < p, and is
    overwritten.  Returns the rank of each matrix and, when keep_rows, the
    (n, n, N) int64 array whose [c, :, i] is the pivot row of column c of
    matrix i mod p.  Where c has no pivot, its diagonal entry [c, c, i] is
    0 and the rest of the row is arbitrary: _stack_kernels scales each kept
    row by the inverse of its diagonal, which is 0 for 0.

    The column being eliminated is the contiguous (m, N) slab a[0], the
    pivot rows are gathered into one contiguous (n - c - 1, N) array, and
    the update runs over the contiguous a[1:], each of its numpy loops
    along the N matrices.  Each step drops its column, so `a` holds the
    columns not yet eliminated.  Each matrix picks its own pivot among the
    rows it has not used yet and clears that column from its other rows
    with the inverse-free update row <- pivot*row - a_ic*pivot_row, where
    a_ic is taken as 0 in the rows it has used; a matrix without a pivot
    in the column keeps its rows.  Scaling a row by a unit keeps the rank
    and the row space.  Each step writes its product a_ic*pivot_row and its
    reductions into one scratch array of a's size, allocated once.

    The steps are ring operations on integers, so only the pivot column is
    reduced, to test pivots, until the next update could overflow.  Every
    reduction leaves residues in [0, p), so |entry| <= p-1 holds again
    after it.  With pivot and a_ic in [0, p) and |entries| <= B, an update
    leaves them at most 2(p-1)B in absolute value, so `a` is reduced again
    once 2(p-1)B reaches the limit of its dtype.  The dtype depends on p
    alone (stack_dtype): int8 (limit 2^7) for p <= 7, int16 (2^15) for
    p <= 127, int32 (2^31) for p <= 32749 and int64 (2^63) otherwise,
    where 2(p-1)^2 < 2^63 for p < 2^31.
    """
    ncols, m, count = a.shape
    limit = 1 << (8 * a.itemsize - 1)
    if m == 0:  # no rows: rank 0, no pivots
        a = np.zeros((ncols, 1, count), dtype=a.dtype)
        m = 1
    work = np.empty_like(a)  # the last slab takes the pivot column's quotient
    mats = np.arange(count)
    used = np.zeros((m, count), dtype=bool)
    rows = np.zeros((ncols, ncols, count), dtype=np.int64) if keep_rows else None
    bound = p - 1  # on |entry| of a
    for c in range(ncols):
        col = _reduce(a[0], p, work[-1])
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
        a -= np.multiply(col, prow[:, None], out=work[:len(a)])
        bound *= 2 * (p - 1)
        if 2 * (p - 1) * bound >= limit:  # the next update could overflow
            _reduce(a, p, work[:len(a)])
            bound = p - 1
        used[piv, mats] |= found
    return used.sum(axis=0), rows


def _in_layout(a: np.ndarray, p: int) -> bool:
    """Whether the (N, m, n) stack a is a view of _forward's layout."""
    t = a.transpose(2, 1, 0)
    return t.dtype == stack_dtype(p) and t.flags.c_contiguous


def _relaid(a: np.ndarray, p: int) -> np.ndarray:
    """A copy of the (N, m, n) residues a, as a view of _forward's layout."""
    return np.array(a.transpose(2, 1, 0), dtype=stack_dtype(p), order="C").transpose(2, 1, 0)


def _laid_out(a: np.ndarray, p: int) -> np.ndarray:
    """The (n, m, N) layout of _forward for the (N, m, n) residues a: a's
    own memory when a is a view of it, as evaluate_modp writes it, and
    otherwise a copy."""
    return (a if _in_layout(a, p) else _relaid(a, p)).transpose(2, 1, 0)


def _stack_ranks(a: np.ndarray, p: int) -> np.ndarray:
    """modp_ranks of an (N, m, n) stack of residues, which it may
    overwrite: one at a time by _rref when m n > ECHELON_CELLS, and
    otherwise all at once by _forward on the side with fewer columns."""
    if a.shape[1] * a.shape[2] > ECHELON_CELLS:
        return np.array([_rref(np.ascontiguousarray(x, dtype=np.int64), p)[1].size
                         for x in a], dtype=np.int64)
    if a.shape[2] > a.shape[1]:  # fewer columns, fewer steps
        a = a.transpose(0, 2, 1)
    return _forward(_laid_out(a, p), p, keep_rows=False)[0]


def modp_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of each matrix in an (N, m, n) stack: one at a time by
    _rref when m n > ECHELON_CELLS, and otherwise all at once by the
    forward elimination of _forward on the side with fewer columns."""
    return _stack_ranks(_reduced(stack, p), p)


def _kernel_of(a: np.ndarray, p: int) -> np.ndarray:
    """modp_kernel of one matrix of residues, from its _rref."""
    rows, piv = _rref(a, p)
    free = np.delete(np.arange(a.shape[1]), piv)
    return _kernel_basis(rows[:, free], piv, free, a.shape[1], p)


def _stack_kernels(a: np.ndarray, p: int) -> list[np.ndarray]:
    """modp_kernel of an (N, m, n) stack of residues, which it may
    overwrite."""
    if a.shape[1] * a.shape[2] > ECHELON_CELLS:
        return [_kernel_of(np.ascontiguousarray(x, dtype=np.int64), p) for x in a]
    _, u = _forward(_laid_out(a, p), p, keep_rows=True)
    n = a.shape[2]
    diag = np.arange(n)
    u = _mod(u * _inverse_mod(u[diag, diag], p)[:, None], p)
    for c in range(n - 1, 0, -1):
        u[:c, c:] = _mod(u[:c, c:] - u[:c, c, None] * u[c, None, c:], p)
    # row f of (I - R) is e_f - R[:, f] for a free column f, where R[f] = 0
    ker = _mod(np.eye(n, dtype=np.int64)[:, :, None] - u, p).transpose(2, 1, 0)
    return [k[d == 0] for k, d in zip(ker, u[diag, diag].T)]


def modp_kernel(stack: np.ndarray, p: int) -> list[np.ndarray]:
    """Right kernel basis mod p of each matrix in an (N, m, n) stack, as
    rows of an int64 array: the row e_f - sum_r R[r, f] e_pivot(r) for
    each free column f of the RREF R.

    When m n > ECHELON_CELLS each matrix is eliminated alone by _rref, on
    BLAS products.  Otherwise the stack gives the same
    bases at once: _forward keeps the pivot row of each column, and a
    stacked back substitution scales each to a leading 1 and clears its
    column from the rows above, which leaves R in the pivot rows.  The
    back substitution keeps _forward's layout, the stack innermost,
    (n, n, N).
    """
    return _stack_kernels(_reduced(stack, p), p)


def _kernel_pairs(a: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Ker A, Ker A^T), as modp_kernel gives them, for each matrix A of an
    (N, m, n) stack of residues, which it may overwrite.  A side whose
    layout a is a view of is eliminated in a's memory, so the other side,
    A when A^T is laid out and else A^T, is copied first."""
    at = a.transpose(0, 2, 1)
    if _in_layout(at, p):
        a = _relaid(a, p)
    else:
        at = _relaid(at, p)
    return list(zip(_stack_kernels(a, p), _stack_kernels(at, p)))


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
        rref = modp_rref(vecs, p)[0].tolist() if len(vecs) else []
        return Subspace(ambient_dim, tuple(map(tuple, rref)), p)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether every basis row v of other lies in the span.  basis[:,
        pivots] is the identity, so v does exactly when v = v[pivots] @ basis."""
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise ValueError("subspaces live in different ambient spaces")
        rows = np.array(other.basis, dtype=np.int64).reshape(-1, self.ambient_dim)
        basis = np.array(self.basis, dtype=np.int64).reshape(-1, self.ambient_dim)
        pivots = (basis != 0).argmax(axis=1)
        return bool((modp_matmul(rows[:, pivots], basis, self.p) == rows).all())
