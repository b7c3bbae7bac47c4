"""Rank measurement and certification for pencils.

Verdict semantics: "constant" is only ever claimed from exhaustive
enumeration of the projective parameter space over a finite field or from
the transitivity certificate (equivariant pencil whose symmetry group acts
transitively on the projective base: the GL, Sp and Koszul pencils).  Sampled
runs return "bounded" (all measured ranks below min(b,c)), "non-constant"
(differing ranks with the maximum equal to min(b,c)) or "inconclusive",
always with witnesses, a prime and a seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .linalg import (
    DEFAULT_PRIME,
    STACK_BYTES,
    Subspace,
    _kernel_pairs,
    _product,
    _stack_ranks,
    check_prime,
    modp_kernel,  # wrapped here by perfbench/spans.py
    modp_rank,
    modp_rref,  # noqa: F401  (wrapped here by perfbench/spans.py)
    qq_rank,
    stack_buffers,
    stack_dtype,
)
from .modules import exp_two_form, orthogonal_form, spin_space
from .partitions import (
    Partition,
    check_partition,
    gl_dim,
    horizontal_strips,
    size,
    so_module_dim,
)
from .pencils import Pencil, check_equivariance, _one_box

EXHAUSTIVE_BLOCK = 1 << 14  # projective points decoded at once
RND_MAX_SAMPLES = 512  # accepted samples after which rnd gives up


@dataclass
class PredictedDecomposition:
    kernel_dim: int
    image_dim: int
    cokernel_dim: int
    terms: list  # (alpha, k, dim, "kernel" | "image")


@dataclass
class RankReport:
    generic_rank: int
    strata: list  # (rank, point, point_class)
    verdict: str
    method: dict

    def to_jsonable(self) -> dict:
        return {
            "generic_rank": self.generic_rank,
            "verdict": self.verdict,
            "method": self.method,
            "strata": [
                {"rank": r, "point": [str(x) for x in pt], "class": cls}
                for r, pt, cls in self.strata
            ],
        }


def random_points(rng: random.Random, count: int, nvars: int, prime: int) -> np.ndarray:
    """count points of F_prime^nvars as a (count, nvars) int64 array, for
    prime < 2^32: the values, and the state rng is left in, of one
    rng.randrange(prime) per coordinate in row-major order, drawn in bulk.

    randrange(prime) keeps the top k = prime.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while they are >= prime.
    getrandbits(32 w) is the next w words, the first in the lowest 32 bits,
    so each pass reads it as w little-endian words, keeps word >> (32 - k)
    where it is below prime, and draws again only for the shortfall: no
    word is drawn that the per-coordinate loop would not draw."""
    out = np.empty(count * nvars, dtype=np.int64)
    shift, done = 32 - prime.bit_length(), 0
    while done < out.size:
        w = out.size - done
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"),
                              dtype="<u4") >> shift
        words = words[words < prime]
        out[done : done + words.size] = words
        done += words.size
    return out.reshape(count, nvars)


def _stack_buffers(pencil: Pencil, p: int, count: int):
    """(stack_buffers, n) for _evaluated's stacks of n matrices: `count`,
    but at most as many as STACK_BYTES hold, and at least one."""
    cells = pencil.target_dim * pencil.source_dim
    count = max(1, min(count, STACK_BYTES // (cells * np.dtype(stack_dtype(p)).itemsize)))
    return stack_buffers(count * cells, p, max(count, STACK_BYTES // 8)), count


def _evaluated(pencil: Pencil, points, p: int, stacked: np.ndarray, buffers=None):
    """The pencil mod p at each row of the (N, s) points, in order, as
    stacks of at most STACK_BYTES bytes of stack_dtype(p) and at least one
    matrix, each in the layout of linalg's stacked loop
    (Pencil.evaluate_modp), which linalg eliminates by matrix size, with
    the float64 scratch that stack_product fills STACK_BYTES at a time and
    the loop then takes for its own: `buffers`, whose size sets the
    stacks', or one allocation per call.  They are refilled for each stack,
    so a stack is valid until the next is drawn.  A stack shares the loop's
    numpy calls per column among its matrices: 37 of 56x63 at DEFAULT_PRIME
    (int64), 5,349 of 14x14 at F_5 or F_7 (int8).  The certify workload
    took 0.195, 0.166, 0.143 and 0.137 s, at 570, 600, 660 and 625
    thousand exhaustive points a second, and peaked at 39.7, 40.2, 41.5 and
    43.9 MB RSS at 2^18 to 2^21 bytes (medians of 3 runs of
    perfbench/run.py --seconds 6, 2-CPU VM, numpy 2.4)."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, pencil.nvars)
    (f, e), step = buffers or _stack_buffers(pencil, p, len(pts))
    for i in range(0, len(pts), step):
        yield pencil.evaluate_modp(pts[i : i + step], stacked, p, (f, e)), f


def ranks_at(pencil: Pencil, points, p: int, stacked: Optional[np.ndarray] = None,
             buffers=None) -> list[int]:
    """Rank mod p of the pencil at each row of the (N, s) points, a stack
    of _evaluated at a time.

    `stacked` is the pencil's coeff_array_modp(p), `buffers` its
    _stack_buffers, when the caller has them."""
    check_prime(p)
    if stacked is None:
        stacked = pencil.coeff_array_modp(p)
    return [r for a, f in _evaluated(pencil, points, p, stacked, buffers)
            for r in _stack_ranks(a, p, f).tolist()]


def _kernels(pencil: Pencil, points, p: int, stacked: np.ndarray):
    """(Ker A, (Im A)^perp) bases as rows at each point, in order: the
    kernels of each stack of _evaluated and of its transpose."""
    for a, f in _evaluated(pencil, points, p, stacked):
        yield from _kernel_pairs(a, p, f)


def generic_rank(pencil: Pencil, prime: int = DEFAULT_PRIME, trials: int = 20,
                 seed: int = 0, stacked: Optional[np.ndarray] = None) -> int:
    check_prime(prime)
    points = random_points(random.Random(seed), trials, pencil.nvars, prime)
    return max(ranks_at(pencil, points, prime, stacked), default=0)


def projective_blocks(s: int, p: int, block: int):
    """P^{s-1}(F_p) with first nonzero coordinate 1, in lexicographic order,
    as arrays of at most `block` points decoded from base-p digits."""
    for lead in range(s):
        total = p ** (s - lead - 1)
        for start in range(0, total, block):
            idx = np.arange(start, min(start + block, total), dtype=np.int64)
            out = np.zeros((idx.size, s), dtype=np.int64)
            out[:, lead] = 1
            for k in range(s - 1, lead, -1):
                idx, out[:, k] = np.divmod(idx, p)
            yield out


def structured_points(pencil: Pencil, prime: int, rng: random.Random,
                      count: int = 10) -> list[tuple[tuple[int, ...], str]]:
    """Orbit-specific sample points depending on how the pencil was built:
    coordinate, SO(m) isotropic and non-isotropic, or pure-spinor points."""
    s = pencil.nvars
    pts = [(tuple(e), "coordinate") for e in np.eye(s, dtype=np.int64).tolist()]
    kind = pencil.spec.kind if pencil.spec is not None else None
    if kind == "so":
        form = orthogonal_form(s)
        for x in random_points(rng, count, s, prime).tolist():
            # B(x, x) = 2 x_0 x_1 + (B(x, x) at x_1 = 0): solve for x_1
            x[0], x[1] = max(1, x[0]), 0
            x[1] = -form.quadratic(x) * pow(2 * x[0], -1, prime) % prime
            pts.append((tuple(x), "isotropic"))
        pts += [(tuple(x), "non-isotropic") for x in random_points(rng, count, s, prime).tolist()
                if form.quadratic(x) % prime]
        pts.append((tuple([1, 1] + [0] * (s - 2)), "non-isotropic"))
    if kind == "spin":
        even = spin_space(pencil.spec.args[0]).even_basis
        pairs = [I for I in even if len(I) == 2]
        for d2 in random_points(rng, count, len(pairs), prime).tolist():
            delta = exp_two_form(dict(zip(pairs, d2)))
            pts.append((tuple(delta.get(I, 0) % prime for I in even), "pure-spinor"))
    return pts


def _first_points(pencil: Pencil, blocks, prime: int) -> dict[tuple[int, str], tuple]:
    """The first point of each (rank, class) over the (points, class)
    blocks, in order: one ranks_at call per block, all in the buffers the
    first block needs, and one np.unique.  No block holds the zero point:
    random draws, the only points that can be zero, drop it."""
    stacked, buffers = pencil.coeff_array_modp(prime), None
    found: dict[tuple[int, str], tuple] = {}
    for points, cls in blocks:
        buffers = buffers or _stack_buffers(pencil, prime, len(points))
        values, first = np.unique(ranks_at(pencil, points, prime, stacked, buffers),
                                  return_index=True)
        for r, i in zip(values.tolist(), first):
            found.setdefault((r, cls), tuple(points[i].tolist()))
    return found


def _sampled_blocks(pencil: Pencil, prime: int, rng: random.Random, trials: int):
    """The nonzero trials, drawn EXHAUSTIVE_BLOCK at a time, as "generic"
    blocks, then the structured points (none of them zero) one class at a
    time."""
    for start in range(0, trials, EXHAUSTIVE_BLOCK):
        points = random_points(rng, min(EXHAUSTIVE_BLOCK, trials - start), pencil.nvars, prime)
        yield points[points.any(axis=1)], "generic"
    pts = structured_points(pencil, prime, rng)
    for cls in dict.fromkeys(cls for _, cls in pts):
        yield np.array([x for x, c in pts if c == cls], dtype=np.int64), cls


def constant_rank_verdict(pencil: Pencil, mode: str = "sampled",
                          prime: int = DEFAULT_PRIME, trials: int = 200,
                          seed: int = 0, budget: int = 10 ** 6) -> RankReport:
    """Each mode chooses the (points, class) blocks that _first_points reads
    the strata from: one nonzero random point (transitivity), P^{s-1}(F_p)
    (exhaustive), or the trials and the structured points (sampled); it
    refuses more than `budget` projective points or trials."""
    check_prime(prime)
    rng = random.Random(seed)
    s = pencil.nvars
    npoints = trials if mode == "sampled" else (prime ** s - 1) // (prime - 1)
    if mode != "transitivity" and npoints > budget:
        raise ValueError(f"{npoints} projective points exceed budget {budget}")
    if mode == "transitivity":
        if pencil.spec is None or not pencil.spec.transitive:
            raise ValueError("transitivity certificate requires a GL, Sp or Koszul "
                             "build record that describes the file")
        if not check_equivariance(pencil):
            raise ValueError("equivariance certificate failed")
        x = random_points(rng, 1, s, prime)
        while not x.any():
            x = random_points(rng, 1, s, prime)
        blocks = [(x, "generic")]
        method = {"kind": "transitivity", "prime": prime, "seed": seed,
                  "equivariance": "exact"}
    elif mode == "exhaustive":
        blocks = ((b, "exhaustive") for b in projective_blocks(s, prime, EXHAUSTIVE_BLOCK))
        method = {"kind": "exhaustive", "prime": prime, "points": npoints}
    elif mode == "sampled":
        blocks = _sampled_blocks(pencil, prime, rng, trials)
        method = {"kind": "sampled", "prime": prime, "trials": trials, "seed": seed}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    found = _first_points(pencil, blocks, prime)
    ranks = {r for r, _ in found}
    if mode != "sampled":
        verdict = "constant" if len(ranks) == 1 else "non-constant"
    elif max(ranks) < min(pencil.source_dim, pencil.target_dim):
        verdict = "bounded"
    elif len(ranks) > 1:
        verdict = "non-constant"
    else:
        verdict = "inconclusive"
    strata = [(r, pt, cls) for (r, cls), pt in sorted(found.items())]
    return RankReport(max(ranks), strata, verdict, method)


# ---------------------------------------------------------------------------
# predicted decompositions from the branching formulas


def _cell_in(alpha: Partition, row: int, col: int) -> bool:
    """1-based cell membership."""
    return len(alpha) >= row and alpha[row - 1] >= col


def _strip_decomposition(mu: Partition, nu: Partition, n: int,
                         dim: Callable[[Partition, int], int]) -> PredictedDecomposition:
    """Kernel/image/cokernel dimensions of a one-box pencil at a point whose
    stabilizer has module dimensions dim(-, n-1).

    Restricting to the hyperplane H (dim n-1), the source decomposes over
    horizontal strips mu -> alpha; a summand lies in the kernel exactly when
    the box directly north of the added box does not survive in alpha.
    """
    mu, nu = check_partition(mu), check_partition(nu)
    box = _one_box(mu, nu, n)
    north = (box.row - 1, box.col)
    terms = []
    kernel = 0
    image = 0
    for k in range(size(mu) + 1):
        for alpha in horizontal_strips(mu, k):
            d = dim(alpha, n - 1)
            if d == 0:
                continue
            in_kernel = box.row > 1 and not _cell_in(alpha, *north)
            terms.append((alpha, k, d, "kernel" if in_kernel else "image"))
            if in_kernel:
                kernel += d
            else:
                image += d
    assert kernel + image == dim(mu, n)
    return PredictedDecomposition(kernel, image, dim(nu, n) - image, terms)


def predict_gl_decomposition(mu: Partition, nu: Partition, v: int) -> PredictedDecomposition:
    """The strip decomposition of the GL one-box pencil, with GL(v-1) dimensions."""
    return _strip_decomposition(mu, nu, v, gl_dim)


def predict_so_nonisotropic(mu: Partition, nu: Partition, m: int) -> PredictedDecomposition:
    """The strip decomposition with SO(m-1) module dimensions.

    Valid at non-isotropic points, where the perpendicular hyperplane is a
    genuine SO(m-1) space; at isotropic points only the kernel dimension is
    asserted to match (checked empirically elsewhere).
    """
    return _strip_decomposition(mu, nu, m, so_module_dim)


# ---------------------------------------------------------------------------
# rank neutral directions


@dataclass
class RndReport:
    """The B that meet the constraints on each accepted sample's torus orbit
    over the algebraic closure of F_p, the verdict, dim L and the samples."""

    space: Subspace
    verdict: str  # "rank-critical-certified" | "strictly-larger" | "inconclusive"
    pencil_span_dim: int
    samples_used: int
    method: dict


def _torus_blocks(pencil: Pencil) -> list[list[np.ndarray]]:
    """[cells, kernel] per width w of the blocks of Pencil.torus: their (n, w)
    flat cell indices, increasing, and (n, w, w) kernels, at first I.  Row
    f of a kernel is its basis row of free column f, and 0 at a pivot."""
    order = np.argsort(pencil.torus[3], axis=None, kind="stable")
    width = np.bincount(pencil.torus[3].ravel())
    return [[order[(np.cumsum(width) - width)[width == w][:, None] + np.arange(w)],
             np.broadcast_to(np.eye(w, dtype=np.int64), (np.count_nonzero(width == w), w, w))]
            for w in np.flatnonzero(np.bincount(width))]


def _cut(groups: list, pairs: list, span: np.ndarray, p: int) -> bool:
    """Cut each block's kernel of the _torus_blocks groups, in place, by the
    rows f_i[r_k] u_j[c_k] of every (f, u) pair, (r_k, c_k) the block's
    cells, a stack at a time: blocks' row spaces I - K^T over a piece of
    the rows, as many as STACK_BYTES of int64 hold (at least one block and
    w rows), kerneled by modp_kernel.  A block whose kernel is then zero is
    dropped.  Returns whether a block part v of a row of `span` (an A_v)
    is outside its block's kernel: v @ K != v, as K[:, free] = I."""
    b = span.shape[1] // pairs[0][0].shape[1]
    ff = np.concatenate([np.repeat(f, len(u), axis=0) for f, u in pairs])
    uu = np.concatenate([np.tile(u, (len(f), 1)) for f, u in pairs])
    escaped = False
    for g, (cells, ker) in enumerate(groups):
        w = cells.shape[1]
        step = max(w, STACK_BYTES // (8 * w) - w)
        for lo in range(0, len(ff), step):
            f, u = ff[lo : lo + step], uu[lo : lo + step]
            per, kers = max(1, STACK_BYTES // (8 * w * (w + len(f)))), []
            for i in range(0, len(cells), per):
                rows = f[:, cells[i : i + per] // b] * u[:, cells[i : i + per] % b]
                eye = np.eye(w, dtype=np.int64) - ker[i : i + per].transpose(0, 2, 1)
                kers += modp_kernel(np.concatenate([eye, rows.transpose(1, 0, 2)], axis=1), p)
            ker = np.zeros((len(cells), w, w), dtype=np.int64)
            for i, k in enumerate(kers):  # row f of k ends in its free column f
                ker[i, w - 1 - (k[:, ::-1] != 0).argmax(axis=1)] = k
        part = span[:, cells].transpose(1, 0, 2)
        escaped = escaped or any((_product(part[i], ker[i], p) != part[i]).any()
                                 for i in np.flatnonzero(part.any(axis=(1, 2))))
        live = ker.any(axis=(1, 2))
        groups[g] = [cells[live], ker[live]]
    return escaped


def rnd(pencil: Pencil, prime: int = DEFAULT_PRIME, seed: int = 0) -> RndReport:
    """The space of rank neutral directions {B : B(Ker A) <= Im A for all
    max-rank A in the pencil}, computed over F_prime by sampling.

    Each accepted sample x constrains B at every point t.x of its orbit
    under Pencil.torus, over the algebraic closure of F_prime: the
    constraints at t.x are those at x moved by D_y(t) and D_z(t), so, as
    distinct characters are independent, they meet over the orbit in the
    direct sum of the block kernels of the constraints at x cut to each
    torus block (_cut).  The rank is the same along the orbit, so that sum
    still holds RND(L).

    L is always contained in the output.  When the output equals the span L
    of the coefficient matrices, equality RND(L) = L is exact (every
    constraint space contains RND(L)) and rank-criticality is certified.
    If the dimension stabilizes strictly above dim L for two consecutive
    doubling rounds the verdict is "strictly-larger".

    Samples of rank below r, the largest of 20 sampled ranks, are rejected.
    When those 20 miss the generic rank, lower-rank samples are accepted and
    L can escape their constraints (_cut), which proves r too low.
    Sampling then goes on until a rank above r is accepted; r is raised to
    it and the accumulation starts again.  Only when RND_MAX_SAMPLES samples
    show no rank above r does the escape raise.

    L's dimension is a modp_rank; the canonical Subspace is built only for
    the reported space.
    """
    check_prime(prime)
    rng = random.Random(seed)
    stacked = pencil.coeff_array_modp(prime)
    b, ambient = pencil.source_dim, pencil.target_dim * pencil.source_dim
    r = generic_rank(pencil, prime, trials=20, seed=seed, stacked=stacked)
    span = stacked.reshape(pencil.nvars, ambient)  # L, as rows
    s, span = modp_rank(span, prime), (span % prime).astype(np.int64)
    groups, escaped, top = _torus_blocks(pencil), False, r  # top: the largest rank accepted
    samples_used, target, prev_dim, stable = 0, pencil.nvars + 2, None, 0

    def report(verdict: str) -> RndReport:
        space = []  # the block kernels' rows
        for cells, ker in groups:
            blk, free = np.nonzero(ker.any(axis=2))
            space.append(np.zeros((len(blk), ambient), dtype=np.int64))
            space[-1][np.arange(len(blk))[:, None], cells[blk]] = ker[blk, free]
        return RndReport(Subspace.from_vectors(np.concatenate(space), ambient, prime), verdict,
                         s, samples_used, {"prime": prime, "seed": seed, "generic_rank": r})

    while samples_used < RND_MAX_SAMPLES:
        while samples_used < target:
            # the draws still needed, accepted in draw order: a rejected
            # draw is made up for by the next batch, as one at a time
            xs = random_points(rng, target - samples_used, pencil.nvars, prime)
            accepted = [(coker, ker) for ker, coker in _kernels(pencil, xs, prime, stacked)
                        if b - len(ker) >= r]
            top = max([top] + [b - len(ker) for _, ker in accepted])
            # the first sample after a start cuts alone: few blocks outlive it
            for pairs in filter(None, (accepted[:1], accepted[1:]) if not samples_used
                                else (accepted,)):
                escaped = _cut(groups, pairs, span, prime) or escaped
            samples_used += len(accepted)
        dim = sum(int(ker.any(axis=2).sum()) for _, ker in groups)
        if escaped and top > r:
            # a sample below the generic rank was accepted: start again,
            # accepting only samples of the largest rank seen
            r = top
            groups, escaped = _torus_blocks(pencil), False
            samples_used, target, prev_dim, stable = 0, pencil.nvars + 2, None, 0
            continue
        target = min(RND_MAX_SAMPLES, target * 2)
        if escaped:  # no rank above r accepted yet: draw the next round
            continue
        if dim == s:
            return report("rank-critical-certified")
        stable = stable + 1 if dim == prev_dim else 0
        if stable >= 2:
            return report("strictly-larger")
        prev_dim = dim
    if escaped:
        raise AssertionError("pencil span escaped its own RND constraints")
    return report("inconclusive")


# ---------------------------------------------------------------------------
# flattenings and the induced-operator rank formula


def flattening_rank_of_tensor(pencil: Pencil) -> int:
    """Rank of the map V* x B -> Lambda^2 V* x C for T = sum e_i* x A_i."""
    v, c, b = pencil.nvars, pencil.target_dim, pencil.source_dim
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    pair_index = {pq: i for i, pq in enumerate(pairs)}
    rows = [[0] * (v * b) for _ in range(len(pairs) * c)]
    for i, k, j, x in pencil.coeffs:
        for l in range(v):
            if l != i:
                sign = 1 if i > l else -1
                pi = pair_index[(min(i, l), max(i, l))]
                rows[pi * c + k][l * b + j] += sign * x
    return qq_rank(rows)


def koszul_flattening_rank(mu: Partition, nu: Partition, v: int) -> int:
    """Raw rank of the Koszul flattening of the GL one-box pencil tensor.

    The border-rank lower bound is ceil(rank / (v-1)), computed by callers.
    """
    from .pencils import build_gl_pencil

    pencil = build_gl_pencil(check_partition(mu), check_partition(nu), v)
    return flattening_rank_of_tensor(pencil)


def theta_rank_formula(a: int, b: int, r: int) -> int:
    """Rank of the induced operator S^2A x B -> A x Lambda^2 B at rank-r X."""
    if not 0 <= r <= min(a, b):
        raise ValueError(f"rank {r} out of range for {a}x{b}")
    return a * b * r - a * comb(r + 1, 2) - b * comb(r, 2) + 2 * comb(r + 1, 3)
