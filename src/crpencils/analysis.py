"""Rank measurement and certification for pencils.

Verdict semantics: "constant" is only ever claimed from exhaustive
enumeration of the projective parameter space over a finite field or from
the transitivity certificate (equivariant pencil whose symmetry group acts
transitively on the projective base: the GL- and Sp-built pencils).  Sampled
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
    ModpEchelon,
    Subspace,
    check_prime,
    modp_kernel,
    modp_rank,  # noqa: F401  (wrapped here by perfbench/spans.py)
    modp_ranks,
    modp_rref,  # noqa: F401  (wrapped here by perfbench/spans.py)
    qq_rank,
)
from .modules import exp_two_form, spin_space
from .partitions import (
    Partition,
    check_partition,
    gl_dim,
    horizontal_strips,
    size,
    so_module_dim,
)
from .pencils import Pencil, check_equivariance, _one_box

STACK_CELLS = 1 << 17  # matrix cells evaluated and eliminated as one stack
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
    predicted: Optional[PredictedDecomposition] = None

    def to_jsonable(self) -> dict:
        out = {
            "generic_rank": self.generic_rank,
            "verdict": self.verdict,
            "method": self.method,
            "strata": [
                {"rank": r, "point": [str(x) for x in pt], "class": cls}
                for r, pt, cls in self.strata
            ],
        }
        if self.predicted is not None:
            out["predicted"] = {
                "kernel_dim": self.predicted.kernel_dim,
                "image_dim": self.predicted.image_dim,
                "cokernel_dim": self.predicted.cokernel_dim,
            }
        return out


def _evaluated(pencil: Pencil, points, p: int, stacked: np.ndarray):
    """The pencil mod p at each row of the (N, s) points, in order, as
    stacks of at most STACK_CELLS cells and at least one matrix, which
    linalg eliminates by matrix size.  A stack shares the stacked loop's
    numpy calls per column among its matrices: 2^17 cells (37 matrices of
    56x63, 668 of 14x14, 1 MB of int64) ranked the certify jobs fastest,
    328, 271, 243 and 272 ms at 2^15, 2^16, 2^17 and 2^18 cells (2-CPU VM,
    numpy 2.4, DEFAULT_PRIME)."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, pencil.nvars)
    step = max(1, STACK_CELLS // (pencil.target_dim * pencil.source_dim))
    for i in range(0, len(pts), step):
        yield pencil.evaluate_modp(pts[i : i + step], stacked, p)


def ranks_at(pencil: Pencil, points, p: int,
             stacked: Optional[np.ndarray] = None) -> list[int]:
    """Rank mod p of the pencil at each row of the (N, s) points, a stack
    of _evaluated at a time.

    `stacked` is the pencil's coeff_array_modp(p), when the caller has it.
    """
    check_prime(p)
    if stacked is None:
        stacked = pencil.coeff_array_modp(p)
    return [r for a in _evaluated(pencil, points, p, stacked) for r in modp_ranks(a, p).tolist()]


def _kernels(pencil: Pencil, points, p: int, stacked: np.ndarray):
    """(Ker A, (Im A)^perp) bases as rows at each point, in order: the
    kernels of each stack of _evaluated and of its transpose."""
    for a in _evaluated(pencil, points, p, stacked):
        yield from zip(modp_kernel(a, p), modp_kernel(a.transpose(0, 2, 1), p))


def generic_rank(pencil: Pencil, prime: int = DEFAULT_PRIME, trials: int = 20,
                 seed: int = 0, stacked: Optional[np.ndarray] = None) -> int:
    check_prime(prime)
    rng = random.Random(seed)
    points = [[rng.randrange(prime) for _ in range(pencil.nvars)] for _ in range(trials)]
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
    """Orbit-specific sample points depending on how the pencil was built."""
    pts: list[tuple[tuple[int, ...], str]] = []
    s = pencil.nvars
    for i in range(s):
        e = [0] * s
        e[i] = 1
        pts.append((tuple(e), "coordinate"))
    kind = pencil.spec.kind if pencil.spec is not None else None
    if kind == "so":
        m = s
        # split form: q(x) = sum x_{2k} x_{2k+1} (+ x_last^2 for odd m)
        for _ in range(count):
            x = [rng.randrange(prime) for _ in range(m)]
            x[0] = max(1, x[0])
            rest = sum(x[2 * k] * x[2 * k + 1] for k in range(1, m // 2))
            if m % 2:
                rest += x[m - 1] * x[m - 1]
            x[1] = (-rest) * pow(x[0], -1, prime) % prime
            pts.append((tuple(v % prime for v in x), "isotropic"))
        for _ in range(count):
            x = [rng.randrange(prime) for _ in range(m)]
            q = sum(2 * x[2 * k] * x[2 * k + 1] for k in range(m // 2))
            if m % 2:
                q += x[m - 1] * x[m - 1]
            if q % prime:
                pts.append((tuple(v % prime for v in x), "non-isotropic"))
        pts.append((tuple([1, 1] + [0] * (m - 2)), "non-isotropic"))
    if kind == "spin":
        even = spin_space(pencil.spec.args[0]).even_basis
        pairs = [I for I in even if len(I) == 2]
        for _ in range(count):
            delta = exp_two_form({I: rng.randrange(prime) for I in pairs})
            x = tuple(delta.get(I, 0) % prime for I in even)
            pts.append((x, "pure-spinor"))
    return pts


def constant_rank_verdict(pencil: Pencil, mode: str = "sampled",
                          prime: int = DEFAULT_PRIME, trials: int = 200,
                          seed: int = 0, budget: int = 10 ** 6) -> RankReport:
    check_prime(prime)
    if mode == "transitivity":
        if pencil.spec is None or not pencil.spec.transitive:
            raise ValueError(
                "transitivity certificate requires a pencil whose group acts "
                "transitively on the projective base (GL- or Sp-built)"
            )
        if not check_equivariance(pencil):
            raise ValueError("equivariance certificate failed")
        rng = random.Random(seed)
        x = tuple(rng.randrange(prime) for _ in range(pencil.nvars))
        r = ranks_at(pencil, [x], prime)[0]
        return RankReport(
            generic_rank=r,
            strata=[(r, x, "generic")],
            verdict="constant",
            method={
                "kind": "transitivity",
                "prime": prime,
                "seed": seed,
                "equivariance": "exact",
            },
        )

    if mode == "exhaustive":
        npoints = (prime ** pencil.nvars - 1) // (prime - 1)
        if npoints > budget:
            raise ValueError(f"{npoints} projective points exceed budget {budget}")
        ranks: dict[int, tuple] = {}
        stacked = pencil.coeff_array_modp(prime)
        for block in projective_blocks(pencil.nvars, prime, EXHAUSTIVE_BLOCK):
            values, first = np.unique(ranks_at(pencil, block, prime, stacked),
                                      return_index=True)
            for r, i in zip(values.tolist(), first):
                ranks.setdefault(r, tuple(block[i].tolist()))
        strata = [(r, pt, "exhaustive") for r, pt in sorted(ranks.items())]
        verdict = "constant" if len(ranks) == 1 else "non-constant"
        return RankReport(
            generic_rank=max(ranks),
            strata=strata,
            verdict=verdict,
            method={"kind": "exhaustive", "prime": prime, "points": npoints},
        )

    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    points = [
        (tuple(rng.randrange(prime) for _ in range(pencil.nvars)), "generic")
        for _ in range(trials)
    ]
    points += structured_points(pencil, prime, rng)
    points = [(x, cls) for x, cls in points if any(x)]
    ranks: dict[tuple[int, str], tuple] = {}
    for r, (x, cls) in zip(ranks_at(pencil, [x for x, _ in points], prime), points):
        ranks.setdefault((r, cls), x)
    strata = [(r, pt, cls) for (r, cls), pt in sorted(ranks.items())]
    values = {r for r, _ in ranks}
    if max(values) < min(pencil.source_dim, pencil.target_dim):
        verdict = "bounded"
    elif len(values) > 1:
        verdict = "non-constant"
    else:
        verdict = "inconclusive"
    return RankReport(
        generic_rank=max(values),
        strata=strata,
        verdict=verdict,
        method={"kind": "sampled", "prime": prime, "trials": trials, "seed": seed},
    )


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
    space: Subspace
    verdict: str  # "rank-critical-certified" | "strictly-larger" | "inconclusive"
    pencil_span_dim: int
    samples_used: int
    method: dict


def rnd(pencil: Pencil, prime: int = DEFAULT_PRIME, seed: int = 0) -> RndReport:
    """The space of rank neutral directions {B : B(Ker A) <= Im A for all
    max-rank A in the pencil}, computed over F_prime by sampling.

    L is always contained in the output.  When the output equals the span L
    of the coefficient matrices, equality RND(L) = L is exact (every
    constraint space contains RND(L)) and rank-criticality is certified.
    If the dimension stabilizes strictly above dim L for two consecutive
    doubling rounds the verdict is "strictly-larger".

    Samples of rank below r, the largest of 20 sampled ranks, are rejected.
    When those 20 miss the generic rank, lower-rank samples are accepted and
    L can escape their constraints, which proves r too low.  Sampling then
    goes on until a rank above r is accepted; r is raised to it and the
    accumulation starts again.  Only when RND_MAX_SAMPLES samples show no rank
    above r does the escape raise.
    """
    check_prime(prime)
    rng = random.Random(seed)
    stacked = pencil.coeff_array_modp(prime)
    c, b = pencil.target_dim, pencil.source_dim
    ambient = c * b
    r = generic_rank(pencil, prime, trials=20, seed=seed, stacked=stacked)
    span = Subspace.from_vectors(stacked.reshape(pencil.nvars, ambient), ambient, prime)
    s = span.dim
    # the constraints B(Ker A) <= Im A of every accepted sample, in one echelon
    constraints = ModpEchelon(ambient, prime)
    samples_used = 0
    top = r  # the largest rank accepted
    target = pencil.nvars + 2
    prev_dim = None
    stable = 0
    while samples_used < RND_MAX_SAMPLES:
        while samples_used < target:
            # the draws still needed, accepted in draw order: a rejected
            # draw is made up for by the next batch, as one at a time
            xs = [[rng.randrange(prime) for _ in range(pencil.nvars)]
                  for _ in range(target - samples_used)]
            for ker, coker in _kernels(pencil, xs, prime, stacked):
                if b - len(ker) < r:
                    continue
                top = max(top, b - len(ker))
                # the row of (f, u) is the flattened outer product f u^T
                constraints.add_outer(coker, ker)
                samples_used += 1
        space = Subspace.from_vectors(constraints.kernel(), ambient, prime)
        escaped = not space.contains_subspace(span)
        if escaped and top > r:
            # a sample below the generic rank was accepted: start again,
            # accepting only samples of the largest rank seen
            r = top
            constraints = ModpEchelon(ambient, prime)
            samples_used, target, prev_dim, stable = 0, pencil.nvars + 2, None, 0
            continue
        if escaped:  # no rank above r accepted yet: draw the next round
            target = min(RND_MAX_SAMPLES, target * 2)
            continue
        if space.dim == s:
            return RndReport(
                space, "rank-critical-certified", s, samples_used,
                {"prime": prime, "seed": seed, "generic_rank": r},
            )
        if space.dim == prev_dim:
            stable += 1
            if stable >= 2:
                return RndReport(
                    space, "strictly-larger", s, samples_used,
                    {"prime": prime, "seed": seed, "generic_rank": r},
                )
        else:
            stable = 0
        prev_dim = space.dim
        target = min(RND_MAX_SAMPLES, target * 2)
    if escaped:
        raise AssertionError("pencil span escaped its own RND constraints")
    return RndReport(
        space, "inconclusive", s, samples_used,
        {"prime": prime, "seed": seed, "generic_rank": r},
    )


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
