"""Partition combinatorics and dimension formulas for the classical groups.

Partitions are plain tuples of weakly decreasing integers.  Trailing zeros
are allowed and stripped on normalization; a final run of negative entries
is allowed for GL weights such as (2, 0, ..., 0, -1).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]


class BoxPosition(NamedTuple):
    """A cell of a Young diagram, 1-based."""

    row: int
    col: int


@dataclass(frozen=True)
class GroupSpec:
    """A classical group together with the dimension of its natural module.

    family is one of "GL", "Sp", "SO", "Spin".  natural_dim is v for GL,
    2n for Sp and Spin, m for SO.
    """

    family: str
    natural_dim: int

    def __post_init__(self):
        if self.family not in ("GL", "Sp", "SO", "Spin"):
            raise ValueError(f"unknown group family {self.family!r}")
        if self.natural_dim < 1:
            raise ValueError("natural_dim must be positive")
        if self.family in ("Sp", "Spin") and self.natural_dim % 2:
            raise ValueError(f"{self.family} requires even natural_dim")
        if self.family == "SO" and self.natural_dim < 2:
            raise ValueError("SO(m) needs m >= 2: SO(1) has rank 0 and no weights")

    @property
    def rank(self) -> int:
        if self.family == "GL":
            return self.natural_dim
        return self.natural_dim // 2


def normalize(parts: Iterable[int]) -> Partition:
    """Strip trailing zeros; partitions are equal iff normal forms agree."""
    p = list(parts)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def is_partition(parts: Iterable[int]) -> bool:
    p = tuple(parts)
    return all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def check_partition(parts: Iterable[int]) -> Partition:
    p = normalize(parts)
    if not is_partition(p):
        raise ValueError(f"{p} is not weakly decreasing")
    return p


def size(mu: Partition) -> int:
    return sum(mu)


def conjugate(mu: Partition) -> Partition:
    mu = normalize(mu)
    if not mu:
        return ()
    if mu[-1] < 0:
        raise ValueError("conjugate needs a nonnegative partition")
    cols = [0] * mu[0]
    for row in mu:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


def pieri_add(mu: Partition, max_rows: int) -> list[tuple[Partition, BoxPosition]]:
    """All one-box additions to mu with at most max_rows rows.

    Returns (nu, box) pairs; the box is the unique cell of nu/mu.
    """
    mu = check_partition(mu)
    out = []
    nrows = len(mu)
    if nrows > max_rows:
        return out
    for k in range(min(nrows + 1, max_rows)):
        here = mu[k] if k < nrows else 0
        above = mu[k - 1] if k >= 1 else None
        if above is not None and above <= here:
            continue
        if k >= nrows and here == 0 and k > 0 and mu[k - 1] == 0:
            continue
        nu = list(mu) + [0] * (k + 1 - nrows)
        nu[k] += 1
        out.append((normalize(nu), BoxPosition(k + 1, here + 1)))
    return out


def horizontal_strips(mu: Partition, k: int) -> list[Partition]:
    """All alpha obtained from mu by deleting k boxes, at most one per column.

    Equivalently mu_{i+1} <= alpha_i <= mu_i for all i.
    """
    mu = check_partition(mu)
    if k < 0 or k > sum(mu):
        raise ValueError(f"k={k} out of range for |mu|={sum(mu)}")
    n = len(mu)
    out = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == n:
            if remaining == 0:
                out.append(normalize(acc))
            return
        lo = mu[i + 1] if i + 1 < n else 0
        hi = mu[i]
        for a in range(hi, lo - 1, -1):
            if hi - a <= remaining:
                rec(i + 1, remaining - (hi - a), acc + [a])

    rec(0, k, [])
    return out


def gl_dim(lam: Iterable[int], n: int) -> int:
    """dim S_lam(C^n) by the Weyl product over the l = len(lam) nonzero rows:

        prod_{i<j<l} (lam_i - lam_j + j - i) / (j - i)
        * prod_{i<l} C(lam_i + n-1-i, n-l) / C(n-1-i, n-l),

    the second factor being the pairs i < l <= j < n, where lam_j = 0.  Its
    cost is quadratic in l, not in |lam|; pairs with lam_i = lam_j give 1.

    Weights with negative entries (n of them) are shifted uniformly (the
    dimension only depends on the GL weight up to a determinant twist).
    Returns 0 when lam has more than n rows.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not weakly decreasing")
    if lam and lam[-1] < 0:
        if len(lam) != n:
            raise ValueError("a weight with negative entries needs exactly n entries")
        lam = tuple(x - lam[-1] for x in lam)
    lam = normalize(lam)
    ell = len(lam)
    if ell > n:
        return 0
    num, den = 1, 1
    for i in range(ell):
        for j in range(i + lam[i:].count(lam[i]), ell):  # lam_j < lam_i
            num *= lam[i] - lam[j] + j - i
            den *= j - i
        num *= comb(lam[i] + n - 1 - i, n - ell)
        den *= comb(n - 1 - i, n - ell)
    assert num % den == 0
    return num // den


def _product_formula(lvec: list[int], rvec: list[int], kind: str) -> int:
    """Weyl dimension product for types B/C/D with l = lam+rho, r = rho,
    both doubled: each factor's numerator and denominator scale alike."""
    num, den = 1, 1
    k = len(lvec)
    for i in range(sum(x != y for x, y in zip(lvec, rvec))):  # later rows give only 1s
        for j in range(i + 1, k):
            num *= lvec[i] ** 2 - lvec[j] ** 2
            den *= rvec[i] ** 2 - rvec[j] ** 2
    if kind in ("B", "C"):
        for i in range(k):
            num *= lvec[i]
            den *= rvec[i]
    if num % den:
        raise ArithmeticError("Weyl dimension is not an integer; bad weight?")
    return num // den


def weyl_dim(group: GroupSpec, weight: Iterable[int], doubled: bool = False) -> int:
    """Dimension of the irreducible module of `group` with highest weight.

    The weight is given in the usual epsilon-coordinates, one entry per
    fundamental torus direction (padded with zeros as needed).  Half-integer
    spin weights are passed with doubled=True, meaning every entry is twice
    the actual coordinate.  For the D series the last entry may be negative
    (the two half-spin families); otherwise weights must be dominant.
    Every coordinate is doubled here, so the arithmetic is in integers.
    """
    w = [operator.index(x) * (1 if doubled else 2) for x in weight]
    fam = group.family
    if fam == "GL":
        n = group.natural_dim
        if len(w) > n:
            raise ValueError("weight longer than GL rank")
        w = w + [0] * (n - len(w))
        if any(x % 2 for x in w):
            raise ValueError("GL weights must be integral")
        if any(w[i] < w[i + 1] for i in range(n - 1)):
            raise ValueError("weight is not dominant")
        return gl_dim(tuple(x // 2 for x in w), n)

    rank = group.rank
    if len(w) > rank:
        raise ValueError(f"weight longer than rank {rank} of {fam}({group.natural_dim})")
    w = w + [0] * (rank - len(w))
    if fam == "Sp":
        if any(w[i] < w[i + 1] for i in range(rank - 1)) or w[-1] < 0:
            raise ValueError("weight is not dominant for Sp")
        if any(x % 2 for x in w):
            raise ValueError("Sp weights must be integral")
        rho = [2 * (rank - i) for i in range(rank)]
        return _product_formula([w[i] + rho[i] for i in range(rank)], rho, "C")
    if fam == "SO" and group.natural_dim % 2 == 1:
        if any(w[i] < w[i + 1] for i in range(rank - 1)) or w[-1] < 0:
            raise ValueError("weight is not dominant for SO(odd)")
        rho = [2 * (rank - i) - 1 for i in range(rank)]
        return _product_formula([w[i] + rho[i] for i in range(rank)], rho, "B")
    # D series: SO(2k) and Spin(2k); allow w[-1] < 0
    if any(w[i] < w[i + 1] for i in range(rank - 1)) or (rank >= 2 and w[-2] < abs(w[-1])):
        raise ValueError("weight is not dominant for the D series")
    rho = [2 * (rank - 1 - i) for i in range(rank)]
    return _product_formula([w[i] + rho[i] for i in range(rank)], rho, "D")


def sp_module_dim(lam: Partition, two_n: int) -> int:
    """dim of the symplectic module indexed by lam inside S_lam(C^{2n})."""
    lam = check_partition(lam)
    n = two_n // 2
    if len(lam) > n:
        return 0
    return weyl_dim(GroupSpec("Sp", two_n), lam)


def so_module_dim(lam: Partition, m: int) -> int:
    """dim of the traceless module S_[lam](C^m), the joint contraction kernel.

    This is the dimension of the O(m)-irreducible labeled by lam: zero unless
    the first two columns have total length <= m; diagrams with a long first
    column are transposed to the associated partition; for even m a diagram
    with first column of length exactly m/2 carries two SO(m)-irreducibles and
    the dimension doubles.
    """
    lam = check_partition(lam)
    if not lam:
        return 1
    conj = conjugate(lam)
    c1 = conj[0]
    c2 = conj[1] if len(conj) > 1 else 0
    if c1 + c2 > m:
        return 0
    if 2 * c1 > m:
        assoc = conjugate((m - c1,) + conj[1:]) if m - c1 > 0 else conjugate(conj[1:])
        lam = assoc
    group = GroupSpec("SO", m)
    if m % 2 == 0 and len(normalize(lam)) == m // 2:
        return 2 * weyl_dim(group, lam)
    return weyl_dim(group, lam)


def hook_family_rank(n: int, b: int) -> int:
    """Constant rank of the mu=(2,1^b) -> nu=(2,1^{b+1}) pencil in n+1 variables.

    Closed form C(n,b+1) + C(n,b)(n-b)(n+1)/(b+2); equals
    dim Lambda^{b+1}(C^n) + dim S_{(2,1^b)}(C^n), the image dimensions of the
    two surviving horizontal-strip summands.
    """
    if n < b + 1:
        raise ValueError("need n >= b+1 for the hook shape to exist")
    second = comb(n, b) * (n - b) * (n + 1)
    assert second % (b + 2) == 0
    return comb(n, b + 1) + second // (b + 2)


def family_sizes(family_id: str, **params) -> tuple[int, int, int]:
    """Closed-form (source_dim, target_dim, rank) for the catalog families.

    family_id in {"GL_2_21", "GL_22_221", "SO_2_21"}.
    GL families take n (number of variables is n+1); SO families take m.
    """
    if family_id == "GL_2_21":
        n = params["n"]
        if n < 1:
            raise ValueError("GL_2_21 needs n >= 1")
        return ((n + 2) * (n + 1) // 2, n * (n + 1) * (n + 2) // 3, (n * n + 3 * n) // 2)
    if family_id == "GL_22_221":
        n = params["n"]
        if n < 2:
            raise ValueError("GL_22_221 needs n >= 2")
        a = n * (n + 1) ** 2 * (n + 2) // 12
        b = (n + 2) * (n + 1) ** 2 * n * (n - 1) // 24
        r = n * (n * n - 1) * (n + 4) // 12
        return (a, b, r)
    if family_id == "SO_2_21":
        m = params["m"]
        if m < 3:
            raise ValueError("SO_2_21 needs m >= 3")
        return ((m * m + m - 2) // 2, (m ** 3 - 4 * m) // 3, (m * m + m - 4) // 2)
    raise ValueError(f"unknown family {family_id!r}")
