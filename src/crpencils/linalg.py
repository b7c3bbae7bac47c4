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
_product is the one product mod p of two residue matrices; stack_product
is the one of a pencil's coefficients with a block of points, written
into a stack's buffers.  _product picks its path from the inner dimension
k and p alone, without scanning its operands: two limbs of b while
k (p-1) (2^16 - 1) < 2^53, four limbs otherwise.  It returns
(minus - a b) mod p, or a b mod p, with one final reduction, so an
elimination step that subtracts a product reduces once.

Over F_p there are three eliminations, each with its own jobs.
  - the stacked forward loop (_forward) gives every kernel (modp_kernel),
    by a stacked back substitution, as (N, n, n) arrays whose row f is 0
    at a pivot, and the rank of every matrix of at most ECHELON_CELLS
    cells (_stack_ranks of a stack, modp_rank of one matrix).  It makes
    one vectorized pass over a stack in one layout, column-major with the
    stack innermost, (n, m, N), so that each step reads one contiguous
    slab and each numpy loop of its update runs along the N matrices of
    the stack rather than the m rows of one matrix.  The exhaustive runs
    rank thousands of 14x14 matrices per stack, where a run of 14 entries
    cost more in loop overhead than in arithmetic: in the layout (n, N, m)
    the same ranks take about 1.4 times as long.  Its entries are those of
    stack_dtype(p), the narrowest of int8, int16 and int64 that holds one
    update of residues, 2(p-1)^2 (int8 for p <= 7, int16 for p <= 127),
    so the small primes of exhaustive runs move an eighth or a quarter of
    the bytes of int64.  It eliminates the stack in place, reducing only
    when the next step could overflow, and writes each step's product and
    reduction into one scratch array.  Most stacks take the inverse-free
    update, which scales each row by the pivot; int64 stacks of large
    enough matrices take the delayed one, which scales nothing and
    reduces every 8 columns at DEFAULT_PRIME.
    Pencil.evaluate_modp writes each evaluated stack in this layout, on
    the side with fewer columns, reduced once by stack_product into
    buffers that analysis allocates once per call (stack_buffers) and
    refills for each stack of up to STACK_BYTES = 2^20 bytes, so
    neither its ranks nor its kernels reduce or transpose it again, and
    the float64 scratch of stack_product serves as the loop's own;
    modp_kernel and modp_rank copy a stack of any other form into it;
  - recursive halving (_eliminate), which leaves _gauss_jordan's
    row-by-row elimination to blocks of at most 16 rows.  A matrix met
    once is eliminated by it, its rows then sorted by pivot (_rref): each
    later prime of the qq_rref lift, modp_rref and so Subspace, and the
    rank of every matrix of more than ECHELON_CELLS cells;
  - _stack_rref, _gauss_jordan's rule with a stack axis: the first prime of
    qq_rref, where many small blocks share its numpy calls.  On one matrix
    it is 1.2 to 1.3 times slower (16x735 0.97 against 0.80 ms, 16x64 0.44
    against 0.35 ms, 2-CPU VM, numpy 2.4), so _eliminate keeps _gauss_jordan.

Over Q there is one elimination: qq_rref lifts the RREF mod p of each
block of a batch to Q, checks it with one integer product per stack, and
returns it as (u, s, pivots), row k the primitive integer row u[k] over
s[k] = u[k, pivots[k]] > 0.  Every exact rank (qq_rank) and kernel
(rref_kernel) goes through it, and a realized module makes one call per
span and one for its contraction kernels, whose rows that repeat another
up to a scalar distinct_primitive_rows drops first.

Subspace holds the canonical (RREF) basis of a row space over F_p, built
from integer vectors.  The neutral-direction solve builds one, for the space
it reports; the span's dimension is a modp_rank, and its rounds kernel
stacks of torus blocks by modp_kernel and keeps them in its square form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_PRIME = 2147483629

_PRIME_LIMIT = 1 << 31

EXACT_BOUND = 1 << 62  # int64 arithmetic is used only below this bound

STACK_BYTES = 1 << 20  # of one stack: analysis's evaluated matrices, qq_rref's int64 blocks


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


def _rational_lift(res: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(numerators, denominators, ok): n/d = res mod m with |n|, d <=
    sqrt(m/2) and gcd(d, m) = 1 for each entry where ok, which has a lift.
    The half extended Euclidean algorithm on (m, res), stopped at the first
    remainder <= sqrt(m/2) (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 5.10), on all entries at once: in int64 for one prime,
    where every remainder and cofactor stays below m < 2^31, and in Python
    ints (an object array) for a CRT modulus."""
    bound = isqrt(m // 2)
    r1 = res.reshape(-1).copy()
    r0, t0, t1 = np.full_like(r1, m), np.zeros_like(r1), np.ones_like(r1)
    act = np.flatnonzero(r1 > bound)
    while act.size:
        q = r0[act] // r1[act]
        r0[act], r1[act] = r1[act], r0[act] - q * r1[act]
        t0[act], t1[act] = t1[act], t0[act] - q * t1[act]
        act = act[r1[act] > bound]
    den, shape = np.abs(t1), res.shape
    ok = (den <= bound) & (np.gcd(den, m) == 1)
    return np.where(t1 < 0, -r1, r1).reshape(shape), den.reshape(shape), ok.reshape(shape)


def _tight(a: np.ndarray) -> np.ndarray:
    """An integer array as int64, or as Python ints once an entry reaches EXACT_BOUND."""
    return a.astype(coef_dtype(max_abs(a)), copy=False)


def _passes(a: np.ndarray, piv: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """qq_rref's check, L A == G @ ((L / s) u) with G the pivot columns of A
    (none where piv_k = n), of each matrix A of the stack a at once.  Every
    sum is at most r max|A| L max|u|: the product is _blas's below 2^53,
    int64 below EXACT_BOUND, else Python ints."""
    big = np.lcm.reduce(s.astype(object), axis=1)  # Python ints: no lcm wraps
    bound = max_abs(a) * int(big.max(initial=1)) * max(u.shape[1] * max_abs(u), 1)
    a, u, s, big = (x.astype(coef_dtype(bound), copy=False) for x in (a, u, s, big))
    g = np.take_along_axis(a, np.minimum(piv, a.shape[2] - 1)[:, None, :], axis=2)
    g *= piv[:, None, :] < a.shape[2]
    v = u * (big[:, None] // s)[:, :, None]
    return ((_blas(g, v) if bound < 1 << 53 else g @ v) == big[:, None, None] * a).all(axis=(1, 2))


def _lift(a: np.ndarray, rref: np.ndarray, piv: np.ndarray, m: int):
    """(u, ok): the RREFs mod m of the stack a lifted, each row u_k times the
    lcm s_k of its denominators (primitive: for q^e exactly dividing s_k some
    n/d has q^e | d, so n s_k / d is prime to q), and whether each passed _passes."""
    num, den, ok = _rational_lift(rref, m)
    ok = ok.all(axis=(1, 2), keepdims=True)
    num, den = np.where(ok, num, 0), np.where(ok, den, 1)  # a matrix that does not lift is 0
    # every entry is at most max|num| times the lcm of all denominators
    den = den.astype(coef_dtype(lcm(1, *set(den[den > 1].tolist())) * max(max_abs(num), 1)))
    s = np.lcm.reduce(den, axis=2)
    u = num.astype(den.dtype) * (s[:, :, None] // den)
    return u, ok.ravel() & _passes(a, piv, u, s)


Rref = tuple[np.ndarray, np.ndarray, list[int]]


def _scaled(u: np.ndarray, pivots: list[int]) -> Rref:
    u = _tight(u) if u.dtype == object else u
    return u, u[np.arange(len(u)), pivots], pivots


def _block(rows) -> np.ndarray:
    """A block without its zero rows, int64 arrays as they are, others _tight."""
    if not isinstance(rows, np.ndarray):
        if not all(type(x) is int for row in rows for x in row):
            raise TypeError("qq_rref takes integer entries only")
        rows = np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if rows else 0)
    rows = rows[rows.any(axis=1)]
    return rows if rows.dtype == np.int64 else _tight(rows)


def qq_rref(blocks: Sequence) -> list[Rref]:
    """Reduced row echelon form over Q of each integer block, scaled to
    integers: (u, s, pivots) per block; one matrix is a batch of one.
    RREF row k is u[k] / s[k], u[k] a primitive integer row and s[k] =
    u[k, pivots[k]] > 0; u and s are int64, or object arrays once an entry
    of u reaches EXACT_BOUND.  A block is the integer matrix A: an int64 or
    object ndarray, or rows of Python ints (any other entry: TypeError).
    The blocks of at most one nonzero row go together through _one_rows,
    the other int64 blocks of at most ECHELON_CELLS cells in stacks through
    _first_prime, the rest one at a time through _lifted.

    The RREF mod p is lifted to rationals entrywise; when a lift does not
    exist, or fails the check below, the residues of one more prime are
    combined by CRT and the lift is tried again.  A prime whose echelon has
    lower rank, or the same rank with later pivots, than one seen before
    divides a minor of A and is skipped.  The lift R is accepted only when
    every row a of A equals sum_j a[pivot_j] R_j, that is, with L the lcm
    of the s_k, when L A == A[:, pivots] @ ((L / s) u) exactly (_passes).
    Why the check makes R exact: it gives row(A) in row(R).  R has the
    identity in its pivot columns, so its rows are independent, and
    rank_Q(A) >= rank_p(A) = #rows of R; hence row(A) = row(R).  R is in
    reduced row echelon form by construction (a zero residue lifts to 0),
    and a row space has exactly one such basis, so R is the RREF of A over
    Q.  A wrong lift can fail the check, never pass it.
    """
    blocks = [_block(rows) for rows in blocks]
    one = [i for i, a in enumerate(blocks) if len(a) <= 1]
    out = dict(zip(one, _one_rows([blocks[i] for i in one])))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, a in enumerate(blocks):
        if len(a) > 1 and a.dtype == np.int64 and a.size <= ECHELON_CELLS:
            buckets.setdefault(tuple(1 << (x - 1).bit_length() for x in a.shape), []).append(i)
    for (m, n), idx in buckets.items():
        step = max(1, STACK_BYTES // (8 * m * n))
        for part in (idx[lo : lo + step] for lo in range(0, len(idx), step)):
            out.update(zip(part, _first_prime([blocks[i] for i in part], m, n)))
    return [out[i] if i in out else _lifted(a) for i, a in enumerate(blocks)]


def _one_rows(blocks: list[np.ndarray]) -> list[Rref]:
    """qq_rref of blocks of no row or one nonzero row, all rows at once: each
    over the gcd of its entries, positive at its first nonzero entry."""
    rows = [a[0] for a in blocks if len(a)]
    width = np.array([len(row) for row in rows], dtype=np.int64)
    start = np.cumsum(width) - width
    flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    nonzero = np.flatnonzero(flat)
    first = nonzero[np.searchsorted(nonzero, start)]
    g = np.abs(np.gcd.reduceat(flat, start))  # a one-entry segment is left as it is
    flat = flat // np.repeat(g * np.sign(flat[first]), width)
    rows = iter(np.split(flat.astype(object) if max_abs(flat) >= EXACT_BOUND else flat, start[1:]))
    pivots = iter((first - start).tolist())
    return [_scaled(next(rows)[None], [next(pivots)]) if len(a)
            else (a, np.zeros(0, dtype=a.dtype), []) for a in blocks]


def _stack_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of each matrix of an (N, m, n) stack of residues, which it
    overwrites, by _gauss_jordan's rule with a stack axis: each matrix's
    pivot rows in pivot order, then zero rows, and their (N, m) pivot
    columns, n for a zero row."""
    count, m, n = a.shape
    mats, piv, work = np.arange(count), np.full((count, m), n), np.empty_like(a)
    for i in range(m):
        c = (a[:, i] != 0).argmax(axis=1)
        lead = a[mats, i, c]
        if not lead.any():
            continue
        row = _mod(a[:, i] * _inverses(lead, p)[:, None], p)  # 0 where the row is 0
        f = a[mats, :, c]
        f[:, i] = 0
        a -= np.multiply(f[:, :, None], row[:, None, :], out=work)
        _reduce(a, p, work)
        a[:, i] = row
        piv[lead != 0, i] = c[lead != 0]
    order = np.argsort(piv, axis=1, kind="stable")
    return a[mats[:, None], order], piv[mats[:, None], order]


def _first_prime(blocks: list[np.ndarray], m: int, n: int) -> list[Rref]:
    """qq_rref of int64 blocks of at most m x n, zero-padded into one stack
    (which moves no pivot and no RREF entry): one _stack_rref at
    DEFAULT_PRIME and one _lift, and _lifted on from there where it fails."""
    p, a = DEFAULT_PRIME, np.zeros((len(blocks), m, n), dtype=np.int64)
    for k, b in enumerate(blocks):
        a[k, : b.shape[0], : b.shape[1]] = b
    rref, piv = _stack_rref(_mod(a, p), p)
    u, ok = _lift(a, rref, piv, p)
    rank, piv = (piv < n).sum(axis=1).tolist(), piv.tolist()
    return [_scaled(u[k, :r, :b.shape[1]], piv[k][:r]) if ok[k]
            else _lifted(b, (piv[k][:r], rref[k, :r, :b.shape[1]], p))
            for k, (b, r) in enumerate(zip(blocks, rank))]


def _lifted(a: np.ndarray, best: Optional[tuple] = None) -> Rref:
    """qq_rref of one block from DEFAULT_PRIME, or from the prime after
    `best`, the (pivots, residues, modulus) of a lift that failed."""
    limit = None
    for tried, p in enumerate(_primes()):
        if best is not None and limit is None:  # once a lift has failed
            # every minor is at most H = prod |row| < 2^bits: at most bits/30 primes
            # above 2^30 divide a nonzero one; a CRT modulus above 2 H^2 lifts it
            norms = (a.astype(object) ** 2).sum(axis=1).tolist()
            limit = (3 * sum((n.bit_length() + 1) // 2 for n in norms) + 1) // 30 + 2
        if limit is not None and tried > limit:
            raise ArithmeticError("the RREF lift needed more primes than the Hadamard bound")
        if not tried and best is not None:  # best is the first prime's
            continue
        rref, pivots = _rref(_mod(a, p).astype(np.int64, copy=False), p)  # residues below p
        pivots = pivots.tolist()
        if best is None or (-len(pivots), pivots) < (-len(best[0]), best[0]):
            best = (pivots, rref, p)
        elif pivots == best[0]:  # CRT of the residues mod m and mod p
            res, m = best[1].astype(object), best[2]
            best = (pivots, res + m * _mod((rref.astype(object) - res) * pow(m, -1, p), p), m * p)
        else:
            continue
        u, ok = _lift(a[None], best[1][None], np.array(best[0])[None], best[2])
        if ok[0]:
            return _scaled(u[0], best[0])
    raise ArithmeticError("the primes below 2^31 are exhausted")


def qq_rank(rows) -> int:
    return len(qq_rref([rows])[0][2])


def rref_kernel(u: np.ndarray, s: np.ndarray, pivots: list[int], ncols: int) -> np.ndarray:
    """The right kernel of the RREF R = (u, s, pivots) of qq_rref, one
    primitive integer row e_f - sum_k R[k, f] e_pivots[k] per free column
    f: L e_f - sum_k (L / s_k) u[k, f] e_pivots[k], L the lcm of the s_k,
    over its gcd."""
    scale = lcm(*s.tolist())
    dtype = coef_dtype(scale * max_abs(u))
    free = np.flatnonzero(np.bincount(np.array(pivots, dtype=np.int64), minlength=ncols) == 0)
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
# _stack_ranks and modp_rank rank a matrix of more than ECHELON_CELLS cells
# alone, by _rref, and smaller ones together, by _forward.  Per matrix at
# DEFAULT_PRIME, full 2^20-byte stacks against _rref (2-CPU VM, numpy 2.4,
# minimum of interleaved repeats):              stacked  _rref
#   14x14, random                               0.009 ms 0.25 ms
#   56x63, random                               0.35 ms  1.3 ms
#   64x64, random                               0.46 ms  1.4 ms
#   90x90, random                               1.2 ms   2.3 ms
#   105x70, the GL (2,1) -> (2,1,1) pencil, v=6 0.92 ms  1.7 ms
#   105x81, the SO m=5 hook pencil              1.2 ms   2.1 ms
#   100x100, random                             1.6 ms   2.6 ms
#   126x84, the Koszul pencil L^3 -> L^4 of C^9 1.6 ms   1.6 ms
#   240x45, the GL (2) -> (2,1) pencil at v=9   0.94 ms  2.2 ms
#   112x112, random                             2.4 ms   3.1 ms
#   128x128, random                             4.0 ms   3.5 ms
#   181x181, random (4 to a stack)               14 ms   6.9 ms
#   512x252, random (alone)                      39 ms    15 ms
# Since _forward's delayed update the two are about even near 14,000
# cells on full stacks, against 10,000 before.  The bound stays, because
# one matrix alone (modp_rank, a transitivity check) is slower on the loop
# already at 10,000 cells: 100x100 4.0 ms against 2.6 ms by _rref, 50x200
# 1.9 against 1.6 ms, 240x45 1.8 against 1.3 ms.
ECHELON_CELLS = 10_000


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
      - two limbs when k (p-1) (2^16 - 1) < 2^53 (k <= 64 at
        DEFAULT_PRIME): products of a with the 16-bit limbs of b, the high
        one reduced before it is shifted, which leaves the sum below
        2^53 + 2^47;
      - four limbs otherwise: both operands split, limb products below
        2^32, so sums of _EXACT_INNER = 2^21 of them are exact; per chunk
        of the inner dimension the cross and high sums are reduced, and the
        sum stays below 2^62 + 2^54.
    """
    k, mask = a.shape[1], (1 << _LIMB_BITS) - 1
    if k * (p - 1) * mask < 1 << 53:
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


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """_gauss_jordan's (rows, pivots) of residue rows, by recursive
    halving (Dumas, Pernet and Sultan, ISSAC 2013): the top half is brought
    to RREF T, the bottom half is reduced by T with one product and
    eliminated on the columns T leaves, into B, and T is cleared of B's
    pivots with one more product.  Each bottom row is reduced by every row
    above it, as in _gauss_jordan, so the same rows raise the rank with the
    same pivots, and the RREF of their span is unique."""
    if len(a) <= _BASE_ROWS:
        return _gauss_jordan(a, p)[:2]
    half = len(a) // 2
    top, tpiv = _eliminate(a[:half], p)
    rest = np.ones(a.shape[1], dtype=bool)
    rest[tpiv] = False
    low = a[half:, rest]
    if tpiv.size:  # T[:, tpiv] = I
        low = _product(a[half:, tpiv], top[:, rest], p, minus=low)
    bot, bpiv = _eliminate(low, p)
    bpiv = np.flatnonzero(rest)[bpiv]
    rows = np.zeros((len(bot), a.shape[1]), dtype=np.int64)
    rows[:, rest] = bot
    if bpiv.size:  # B[:, bpiv] = I and B[:, tpiv] = 0
        top = _product(top[:, bpiv], rows, p, minus=top)
    return np.concatenate([top, rows]), np.concatenate([tpiv, bpiv])


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of one matrix of residues, by _eliminate: its rows sorted
    by pivot column, and the pivot columns."""
    rows, pivots = _eliminate(a, p)
    order = np.argsort(pivots)
    return rows[order], pivots[order]


def _matrix(rows, p: int) -> np.ndarray:
    """_reduced of one matrix, reading [] as the 0 x 0 matrix."""
    a = _reduced(rows, p)
    return a.reshape(0, 0) if a.shape == (0,) else a


def modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: (nonzero rows, pivot columns)."""
    rows, pivots = _rref(_matrix(a, p), p)
    return rows, pivots.tolist()


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p of one matrix, as _stack_ranks ranks a stack: by _rref
    above ECHELON_CELLS cells and by _forward otherwise; [] is the 0 x 0
    matrix."""
    return int(_stack_ranks(_matrix(a, p)[None], p)[0])


# the narrowest first: 2(p-1)^2 < 2^7 for p <= 7, < 2^15 for p <= 127 and
# < 2^63 for every p < 2^31
_STACK_DTYPES = (np.int8, np.int16, np.int64)


def stack_dtype(p: int) -> type:
    """The entry type of _forward's stacks, the narrowest of _STACK_DTYPES
    that holds one update of residues, 2(p-1)^2: int8, int16 or int64."""
    return next(t for t in _STACK_DTYPES if 2 * (p - 1) ** 2 < 1 << (np.iinfo(t).bits - 1))


def stack_layout(rows: int, cols: int, count: int) -> tuple[tuple, tuple]:
    """_forward's layout of count rows x cols matrices, on the side with
    fewer columns, the matrices themselves when cols <= rows and else their
    transposes: its (n, m, count) shape, column-major with the stack
    innermost, and the axes that view it as the (count, rows, cols) stack."""
    return ((rows, cols, count), (2, 0, 1)) if cols > rows else ((cols, rows, count), (2, 1, 0))


def stack_buffers(cells: int, p: int, block: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat buffers for stacks of up to `cells` cells: a float64 scratch
    array and one of stack_dtype(p) for the stack.  stack_product fills the
    scratch with `block` cells of its product at a time (all of them by
    default), and _forward then takes it for its own scratch, so it holds
    at least the stack's bytes too."""
    dtype = np.dtype(stack_dtype(p))
    size = 8 * max(min(cells, block or cells), -(-cells * dtype.itemsize // 8))
    # one allocation, not two: fewer page faults per call
    both = np.empty(size + cells * dtype.itemsize, dtype=np.uint8)
    return both[:size].view(np.float64), both[size:].view(dtype)


def stack_product(c: np.ndarray, x: np.ndarray, p: int, f: np.ndarray,
                  e: np.ndarray) -> np.ndarray:
    """c @ x^T mod p, in [0, p), written into e and returned: c an
    integer-valued float64 (r, k) array, x an (N, k) int64 array, f a flat
    float64 scratch array of at least N cells and e a C-contiguous (r, N)
    array of stack_dtype(p).  No other array of e's size is formed: e is
    made a block of rows at a time, as many as f holds.

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
    limbs = [np.ascontiguousarray(((x >> shift) & ((1 << width) - 1)).T, dtype=np.float64)
             for shift in shifts]
    limit, step = 1 << (8 * e.itemsize - 1), max(1, f.size // max(len(x), 1))
    for s in range(0, len(c), step):
        eb = e[s : s + step]
        fb = f[:eb.size].reshape(eb.shape)
        fi = fb.view(np.int64)
        for j, (shift, limb) in enumerate(zip(shifts, limbs)):
            np.matmul(c[s : s + step], limb, out=fb)
            if not j and scale * (hi >> shift) < limit:
                np.copyto(eb, fb, casting="unsafe")
                _reduce(eb, p, fb.reshape(-1).view(e.dtype)[:eb.size].reshape(eb.shape))
                continue
            np.copyto(fi.reshape(-1), fb.reshape(-1), casting="unsafe")  # in place, one pass
            if j:
                eb *= (1 << width) % p
                fi += eb
            _mod(fi, p, out=eb)
    return e


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of each residue of x, and 0 for 0, by Montgomery's
    trick: the running products of the nonzero entries, one pow of the
    last, and a pass back that peels one factor off at a time."""
    xs = x.ravel().tolist()
    prefix, acc = [], 1
    for v in xs:
        prefix.append(acc)
        acc = acc * v % p if v else acc
    inv, out = pow(acc, -1, p), [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        if xs[i]:
            out[i], inv = inv * prefix[i] % p, inv * xs[i] % p
    return np.array(out, dtype=np.int64).reshape(x.shape)


# _forward's delayed update serves int64 stacks of matrices of at least
# 2^11 cells, 2^14 in all; below either it is slower
_DELAYED_CELLS = (1 << 11, 1 << 14)


def _forward(a: np.ndarray, p: int, keep_rows: bool, scratch: Optional[np.ndarray] = None):
    """Forward elimination of a stack in its layout, column by column: a is
    (n, m, N), column-major with the stack index innermost, [c, :, i]
    column c of matrix i, of stack_dtype(p) with |entries| < p, and is
    overwritten.  Returns the rank of each matrix and, when keep_rows, the
    (n, n, N) int64 array whose [c, :, i] is the pivot row of column c of
    matrix i mod p.  Where c has no pivot, its diagonal entry [c, c, i] is
    0 and the rest of the row is arbitrary: _stack_kernels scales each kept
    row by the inverse of its diagonal, which is 0 for 0, and so zeroes it.

    The column being eliminated is the contiguous (m, N) slab a[0], the
    pivot rows are gathered into one contiguous (n - c - 1, N) array, and
    the update runs over the contiguous a[1:], each of its numpy loops
    along the N matrices.  Each step drops its column, so `a` holds the
    columns not yet eliminated.  Each matrix picks its own pivot among the
    rows it has not used yet and clears that column from its other rows; a
    matrix without a pivot in the column keeps its rows.  Each step writes
    its product and reductions into one scratch array of a's size, whose
    last slab takes the pivot column's quotient: a view of `scratch`, a
    flat array of at least a's bytes, or a new one.

    The steps are ring operations on integers, so only the pivot column is
    reduced, to test pivots, until the next update could overflow; every
    reduction leaves residues in [0, p), |entry| <= p-1.  There are two
    update rules, each with its bound on |entries| after t updates:
      - inverse-free, row <- pivot*row - a_ic*pivot_row, with a_ic taken
        as 0 in the rows the matrix has used.  With pivot and a_ic in
        [0, p) and |entries| <= B, an update leaves at most 2(p-1)B, so
        `a` is reduced once 2(p-1)B reaches the limit of its dtype
        (stack_dtype): int8 (2^7) for p <= 7, int16 (2^15) for p <= 127
        and int64 (2^63) otherwise, which at DEFAULT_PRIME is at every step;
      - delayed, row <- row - (a_ic/pivot)*pivot_row, with the multipliers
        a_ic/pivot and the pivot row taken as balanced residues, in
        [-h, h] for h = (p-1)/2, and the column's pivot inverses from one
        batched inversion (_inverses).  There is no scaling pass, and each
        update adds at most h^2, so `a` is reduced only before
        (p-1) + t h^2 could reach 2^63: every 8 columns at DEFAULT_PRIME.
    The rules differ by a unit scalar on each row, so they pick the same
    pivots, give the same ranks and keep rows whose RREF is the same.  An
    int64 stack takes the delayed rule when its matrices have at least
    2^11 cells and the stack at least 2^14 (_DELAYED_CELLS), and every
    other stack the inverse-free one.
    """
    ncols, m, count = a.shape
    limit = 1 << (8 * a.itemsize - 1)
    if m == 0:  # no rows: rank 0, no pivots
        a = np.zeros((ncols, 1, count), dtype=a.dtype)
        m = 1
    work = np.empty_like(a) if scratch is None or scratch.nbytes < a.nbytes else (
        scratch.view(np.uint8)[:a.nbytes].view(a.dtype).reshape(a.shape))
    mats = np.arange(count)
    used = np.zeros((m, count), dtype=bool)
    rows = np.zeros((ncols, ncols, count), dtype=np.int64) if keep_rows else None
    delayed = limit == 1 << 63 and m * ncols >= _DELAYED_CELLS[0] and (
        m * ncols * count >= _DELAYED_CELLS[1])
    h = p // 2
    grow = (lambda b: b + h * h) if delayed else (lambda b: 2 * (p - 1) * b)
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
        if delayed:  # balanced residues, in [-h, h]
            col = _mod(col * _inverses(pivot, p) + h, p) - h
            prow = _mod(prow + h, p) - h
        else:
            a *= pivot + ~found  # a matrix without a pivot keeps its rows
        a -= np.multiply(col, prow[:, None], out=work[:len(a)])
        bound = grow(bound)
        if grow(bound) >= limit:  # the next update could overflow
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


def _stack_ranks(a: np.ndarray, p: int, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Rank mod p of each matrix of an (N, m, n) stack of residues, which
    it may overwrite: one at a time by _rref when m n > ECHELON_CELLS, and
    otherwise all at once by _forward on the side with fewer columns, with
    `scratch` as _forward's."""
    if a.shape[1] * a.shape[2] > ECHELON_CELLS:
        return np.array([_rref(np.ascontiguousarray(x, dtype=np.int64), p)[1].size
                         for x in a], dtype=np.int64)
    if a.shape[2] > a.shape[1]:  # fewer columns, fewer steps
        a = a.transpose(0, 2, 1)
    return _forward(_laid_out(a, p), p, False, scratch)[0]


def _stack_kernels(a: np.ndarray, p: int, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """modp_kernel of an (N, m, n) stack of residues, which it may
    overwrite: _forward keeps the pivot row of each column, and a stacked
    back substitution in the same layout, (n, n, N), scales each to a
    leading 1 and clears its column from the rows above, which leaves R
    in the pivot rows and 0 in the others.  `scratch` is _forward's."""
    _, u = _forward(_laid_out(a, p), p, True, scratch)
    n = a.shape[2]
    diag = np.arange(n)
    u = _mod(u * _inverses(u[diag, diag], p)[:, None], p)
    for c in range(n - 1, 0, -1):
        u[:c, c:] = _mod(u[:c, c:] - u[:c, c, None] * u[c, None, c:], p)
    # row f of (I - R)^T, e_f - R[:, f], is 0 at a pivot and a kernel row at a free f
    return _mod(np.eye(n, dtype=np.int64)[:, :, None] - u, p).transpose(2, 1, 0)


def modp_kernel(stack: np.ndarray, p: int) -> np.ndarray:
    """Right kernel mod p of each matrix of an (N, m, n) stack, as an
    (N, n, n) int64 array: row f is e_f - sum_r R[r, f] e_pivot(r) for each
    free column f of the RREF R and 0 for each pivot column, so the nonzero
    rows are a basis.  Every stack, whatever the size of its matrices, goes
    through _stack_kernels."""
    return _stack_kernels(_reduced(stack, p), p)


def _kernel_pairs(a: np.ndarray, p: int,
                  scratch: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(Ker A, Ker A^T), as modp_kernel gives them, of the matrices A of an
    (N, m, n) stack of residues, which it may overwrite.  A side whose
    layout a is a view of is eliminated in a's memory, so the other side,
    A when A^T is laid out and else A^T, is copied first.  `scratch` is
    _forward's, for both sides."""
    at = a.transpose(0, 2, 1)
    if _in_layout(at, p):
        a = _relaid(a, p)
    else:
        at = _relaid(at, p)
    return _stack_kernels(a, p, scratch), _stack_kernels(at, p, scratch)


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
        return Subspace(ambient_dim, tuple(map(tuple, modp_rref(vecs, p)[0].tolist())), p)

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
        return bool((_product(rows[:, pivots], basis, self.p) == rows).all())
