"""Construction of the matrix pencils: GL/Sp/SO one-box pencils, Koszul
pencils, the spin pencil, adjoint-action pencils, and the induced operator
on pairs of Schur modules.

A pencil maps a source module (dimension b) to a target module (dimension c):
evaluate(x) = sum x_i A_i is a c x b matrix.  The coefficients are stored
sparse, as sorted (var, row, col, num) integer entries with one global
denominator, so they reduce mod any prime not dividing it.  The group
actions that certify equivariance are stored the same way: each as sorted
(row, col, num) integer entries over one denominator (IntMatrix).

Every map out of a realized module is read by _span_map, in integers over
one denominator, and handed to Pencil.from_entries as such.

For Sp/SO pencils the target coordinates are taken against the form-pairing
with the target basis (the adjoint of the symmetrizer), which differs from
the honest projection by an invertible change of target basis; ranks, kernels
and source-side identities are unaffected, and the stored target action is
adjusted accordingly (rho_t = -rho^T for the directly realized action rho).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .linalg import coef_dtype, max_abs, stack_buffers, stack_layout, stack_product
from .modules import (
    RealizedModule,
    clifford_unit,
    complement_sign,
    contract_f,
    form_lie_basis,
    lie_action,
    orthogonal_module,
    schur_module,
    spin_lie_action,
    spin_lie_generators,
    spin_lie_on_w,
    spin_space,
    symplectic_module,
    wedge,
    wedge_e,
)
from .partitions import (
    BoxPosition,
    Partition,
    check_partition,
    conjugate,
    gl_dim,
    pieri_add,
    size,
    so_module_dim,
    sp_module_dim,
)
from .tensors import (
    PASS_CELLS,
    apply_symmetrizer,
    cell_slot,
    chevalley_generators,
    letter_images,
    place_values,
    ragged,
    square_matrix,
    sum_by_key,
    symmetrize_rows,
    tensor_iadd,
)


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix num / den, stored as sorted (row, col, num) integer
    entries with num != 0 over one denominator den >= 1."""

    dim: int
    entries: tuple
    den: int = 1

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> IntMatrix:
        """The matrix of integer {(row, col): value} entries, over den 1."""
        return cls(dim, tuple(sorted((r, c, x) for (r, c), x in entries.items() if x)))

    @classmethod
    def from_dense(cls, m: Sequence[Sequence]) -> IntMatrix:
        return cls.from_entries(len(m), {(r, c): x for r, row in enumerate(m)
                                         for c, x in enumerate(row)})

    @classmethod
    def from_columns(cls, basis: Sequence, cols: Sequence[dict]) -> IntMatrix:
        """The matrix whose j-th column is cols[j], {basis element: value}."""
        index = {K: r for r, K in enumerate(basis)}
        return cls.from_entries(len(basis), {(index[K], j): x for j, col in enumerate(cols)
                                             for K, x in col.items()})

    def lines(self, scale: int, by_col: bool) -> list[list[tuple[int, int]]]:
        """The entries of the integer matrix scale * self (den divides
        scale), per column as (row, value) or per row as (col, value)."""
        f = scale // self.den
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for r, c, num in self.entries:
            line, at = (c, r) if by_col else (r, c)
            out[line].append((at, num * f))
        return out


@dataclass(frozen=True)
class EquivarianceData:
    """One Lie-algebra generator with its three matrix actions.

    x_on_vars acts on the pencil's variable space; rho_source and rho_target
    act on source/target coordinates.  The pencil identity to check is
    rho_t A_i - A_i rho_s = sum_b x_on_vars[b][i] A_b.
    """

    x_on_vars: IntMatrix
    rho_source: IntMatrix
    rho_target: IntMatrix


# nvars x target x source bound on a pencil, checked before anything is
# allocated; the largest catalog pencil (so-hook-corank, m=6) has 774,144.
# nvars x nvars is bounded too: the sampled mode forms the nvars coordinate
# points, so a pencil document may hold at most 1,024 variables
MAX_PENCIL_CELLS = 1 << 20

# the JSON field names of each builder's arguments, in argument order
RECORD_FIELDS = {
    "gl": ("mu", "nu", "v"),
    "sp": ("mu", "nu", "N"),
    "so": ("mu", "nu", "m"),
    "spin": ("n",),
    "koszul": ("k", "v"),
    "adjoint": ("a",),
}


def _record_value(name: str, value):
    """A record field as the builder argument: a partition for mu/nu, else
    an int >= 0; raises ValueError otherwise."""
    if name in ("mu", "nu"):
        if not isinstance(value, (list, tuple)) or any(
                type(x) is not int or x < 0 for x in value):
            raise ValueError(f"{name} must be a list of integers >= 0")
        return check_partition(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an integer >= 0")
    return value


def _dim_floor(kind: str, lam: Partition, n: int) -> int:
    """A lower bound on the dimension of the gl, sp or so module of lam in
    dimension n, read off lam's rows alone: 1 for the trivial and
    determinant modules, 0 for the zero module, and for any other module
    max(n, r + 1), r its first row less its last (gl) or its first row
    (sp, so).  The natural module is the smallest of the others, and the
    root string through the highest weight has r + 1 weights (for so only
    when m >= 3, where SO(m) has roots)."""
    if not lam:
        return 1
    if kind == "gl":
        if len(lam) > n:
            return 0
        r = lam[0] - (lam[-1] if len(lam) == n else 0)
    elif kind == "sp":
        if len(lam) > n // 2:
            return 0
        r = lam[0]
    else:
        if len(lam) + sum(x >= 2 for x in lam) > n:  # the first two columns
            return 0
        if len(lam) == n:  # (1^m), the determinant
            return 1
        if n < 3:
            return n
        r = lam[0]
    return max(n, r + 1) if r else 1


@dataclass(frozen=True)
class BuildSpec:
    """How a pencil was built: the builder's kind and its normalized
    arguments, in the order of RECORD_FIELDS[kind]."""

    kind: str
    args: tuple

    @classmethod
    def from_record(cls, record) -> BuildSpec:
        """Parse a JSON builder record; raises ValueError when malformed."""
        if not isinstance(record, dict):
            raise ValueError("malformed builder record: not an object")
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in RECORD_FIELDS:
            raise ValueError(f"unknown builder kind {kind!r}")
        try:
            args = tuple(_record_value(f, record[f]) for f in RECORD_FIELDS[kind])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed builder record: {exc}") from None
        return cls(kind, args)

    def record(self) -> dict:
        """The JSON builder record, partitions as lists."""
        return {"kind": self.kind, **{
            f: list(x) if isinstance(x, tuple) else x
            for f, x in zip(RECORD_FIELDS[self.kind], self.args)
        }}

    @property
    def transitive(self) -> bool:
        """Whether the group acts transitively on the nonzero points of the
        variable space: GL_v on C^v (GL- and Koszul-built) and Sp_N on C^N."""
        return self.kind in ("gl", "sp", "koszul")

    def shape(self) -> Optional[tuple[int, int, int]]:
        """(nvars, source dim, target dim) of the pencil this spec builds,
        from closed forms, or None past MAX_PENCIL_CELLS coefficient cells;
        ValueError where a closed form is undefined (SO m = 1, odd Sp N) or
        the builder refuses the record (nu zero or not mu plus a box).  None
        comes first for spin with n past the bound's bit length, a last
        field (v, N, m, or a) past the bound, Koszul with min(k, v - k) past
        that bit length (C(v, k) >= 2^min(k, v - k)), and gl, sp and so with
        more boxes than the bound in a partition or n times the _dim_floor
        of both partitions, each at least 1, past it.  A floor is 1 for the
        trivial module and the powers of det, which the Weyl products skip,
        and at least n for the others: so the products run at n <= 1024 on
        one row or a power of det with a row changed, else at n <= 101."""
        kind, a, cells = self.kind, self.args, MAX_PENCIL_CELLS
        bits = cells.bit_length()
        if (a[0] > bits) if kind == "spin" else (a[-1] > cells):
            return None
        if kind == "koszul" and min(a[0], a[1] - a[0]) > bits:
            return None
        if kind in ("gl", "sp", "so"):
            n, floors = a[2], [max(_dim_floor(kind, lam, a[2]), 1) for lam in a[:2]]
            if max(size(a[0]), size(a[1])) > cells or n * floors[0] * floors[1] > cells:
                return None
            _one_box(a[0], a[1], n // 2 if kind == "sp" else n)
            dim = {"gl": gl_dim, "sp": sp_module_dim, "so": so_module_dim}[kind]
            if not (target := dim(a[1], n)):  # so past m in two columns: mu's rows unbounded
                raise ValueError(f"{a[1]} is out of range for SO({n})")
            shape = n, dim(a[0], n), target
        elif kind == "koszul":
            shape = a[1], comb(a[1], a[0]), comb(a[1], a[0] + 1)
        elif kind == "adjoint":
            shape = comb(a[0], 3), a[0] ** 2 - 1, comb(a[0], 3)
        else:  # spin: Delta+ -> Hom(W, Delta-), dim W = 2n
            shape = 2 ** a[0] // 2, 2 * a[0], 2 ** a[0] // 2
        return shape if prod(shape) <= cells else None


@dataclass(frozen=True)
class Pencil:
    nvars: int
    source_dim: int
    target_dim: int
    coeffs: tuple  # sorted (var, row, col, num) int tuples, num != 0
    denom: int
    var_labels: tuple
    spec: Optional[BuildSpec] = None  # None for fixtures and record-less files

    @classmethod
    def from_entries(cls, entries: dict, den: int, nvars: int, source_dim: int,
                     target_dim: int, spec: BuildSpec,
                     var_labels: Optional[tuple] = None) -> Pencil:
        """The built pencil of the integer {(var, row, col): num} coefficients
        num / den over one common denominator den >= 1, stored with the
        overall integer content divided out (a global scalar, irrelevant to
        every rank property but essential for reductions modulo small
        primes).  The stored pencil does not depend on which common
        denominator is given: over den = m D, D the least one, every num and
        so their gcd g is m times its value over D, so num / g and
        den / gcd(den, g) come out the same.  The variables are labelled
        x_1..x_nvars unless var_labels is given.  Parsed files and group
        actions keep their own paths: they must store values exactly, and
        dividing out the content would rescale them."""
        entries = {k: x for k, x in entries.items() if x}
        if not entries:
            raise AssertionError(f"{spec.kind} pencil is identically zero")
        g = gcd(*entries.values())
        coeffs = tuple(sorted(k + (x // g,) for k, x in entries.items()))
        labels = var_labels or tuple(f"x_{i+1}" for i in range(nvars))
        return cls(nvars, source_dim, target_dim, coeffs, den // gcd(den, g), labels, spec)

    def evaluate(self, x: Sequence[int]) -> np.ndarray:
        """sum x_i A_i at an integer point without the global denominator
        (rank-equivalent), as an object array of Python ints: exact at any
        size, and so is its product with an integer vector."""
        xs = [operator.index(xi) for xi in x]
        out = np.zeros((self.target_dim, self.source_dim), dtype=object)
        for var, r, c, num in self.coeffs:
            if xs[var]:
                out[r, c] += xs[var] * num
        return out

    def coeff_array_modp(self, p: int) -> np.ndarray:
        """The (s, c, b) coefficients mod p, centred into |num| <= p/2, as the
        float64 operand of evaluate_modp: a view of the cells of its stack
        layout by variables, laid out once per prime."""
        if self.denom % p == 0:
            raise ValueError(f"prime {p} divides the cleared denominator")
        shape, axes = stack_layout(self.target_dim, self.source_dim, self.nvars)
        a = np.zeros(shape).transpose(axes)
        idx = np.array([e[:3] for e in self.coeffs], dtype=np.int64).reshape(-1, 3)
        a[idx[:, 0], idx[:, 1], idx[:, 2]] = [(e[3] + p // 2) % p - p // 2 for e in self.coeffs]
        return a

    def evaluate_modp(self, x: Sequence, stacked: np.ndarray, p: int,
                      buffers: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
        """sum x_i A_i mod p at one point (s,) or at each row of an (N, s)
        batch, as a (c, b) or (N, c, b) view of one stack written in the
        stacked loop's layout (linalg.stack_layout), in stack_dtype(p), by one
        linalg.stack_product of the cells of `stacked`, coeff_array_modp(p),
        with the points.  `buffers` are linalg.stack_buffers of at least
        N c b cells, which the stack overwrites; without them it gets its
        own."""
        xv = np.asarray(x, dtype=np.int64)
        pts = xv.reshape(-1, self.nvars)
        shape, axes = stack_layout(self.target_dim, self.source_dim, len(pts))
        rows, cells = shape[0] * shape[1], prod(shape)
        f, e = stack_buffers(cells, p) if buffers is None else buffers
        # a view when `stacked` is coeff_array_modp's
        by_vars = stacked.transpose(np.argsort(axes)).reshape(rows, self.nvars)
        laid = stack_product(by_vars, pts, p, f[:cells].reshape(rows, len(pts)),
                             e[:cells].reshape(rows, len(pts)))
        out = laid.reshape(shape).transpose(axes)
        return out.reshape(xv.shape[:-1] + out.shape[1:])


def describes(spec: Optional[BuildSpec], p: Pencil) -> bool:
    """Whether spec's closed-form shape is the pencil's (BuildSpec.shape);
    False for no spec and where the closed forms are undefined."""
    try:
        return spec is not None and spec.shape() == (p.nvars, p.source_dim, p.target_dim)
    except ValueError:
        return False


def generator_cells(spec: BuildSpec) -> int:
    """The cells of the dense Lie algebra generators equivariance_data
    forms for spec: their number times d^2, d the dimension of the natural
    representation (2n for spin).  gl, Koszul and adjoint take the 2(d-1)
    Chevalley generators of sl_d (the identity alone for d = 1), sp the
    d(d+1)/2 of sp_d, and so and spin the d(d-1)/2 of so_d."""
    d = 2 * spec.args[0] if spec.kind == "spin" else spec.args[-1]
    count = {"sp": d * (d + 1) // 2, "so": d * (d - 1) // 2,
             "spin": d * (d - 1) // 2}.get(spec.kind, max(2 * (d - 1), 1))
    return count * d * d


def check_equivariance(p: Pencil) -> bool:
    """Verify rho_t A_i - A_i rho_s = sum_b x_on_vars[b][i] A_b exactly for
    every generator in equivariance_data(p.spec) and every variable i, in
    integers: the identity is multiplied by the lcm of the three
    denominators, and the pencil's global denominator cancels.  False
    unless describes(p.spec, p), which is decided before any module is
    built; ValueError when the generators would exceed MAX_PENCIL_CELLS
    cells (generator_cells), before any is formed."""
    if not describes(p.spec, p):
        return False
    if generator_cells(p.spec) > MAX_PENCIL_CELLS:
        raise ValueError(f"the {p.spec.kind} equivariance generators exceed "
                         f"{MAX_PENCIL_CELLS} cells")
    data = equivariance_data(p.spec)
    by_var: list[list[tuple]] = [[] for _ in range(p.nvars)]
    for var, r, c, num in p.coeffs:
        by_var[var].append((r, c, num))
    for eq in data:
        m = lcm(eq.x_on_vars.den, eq.rho_source.den, eq.rho_target.den)
        t_cols = eq.rho_target.lines(m, by_col=True)
        s_rows = eq.rho_source.lines(m, by_col=False)
        x_cols = eq.x_on_vars.lines(m, by_col=True)
        for i in range(p.nvars):
            diff: dict = {}
            for r, c, num in by_var[i]:
                for k, x in t_cols[r]:
                    diff[k, c] = diff.get((k, c), 0) + x * num
                for j, x in s_rows[c]:
                    diff[r, j] = diff.get((r, j), 0) - num * x
            for b, x in x_cols[i]:
                for r, c, num in by_var[b]:
                    diff[r, c] = diff.get((r, c), 0) - x * num
            if any(diff.values()):
                return False
    return True


def _span_map(mod: RealizedModule, op, target: RealizedModule, per: int,
              growth: int = 1) -> tuple[dict, int]:
    """({(i, k, j): n}, L): n / L is coordinate k in the target's basis of
    the i-th image under op of the module's basis vector b_j.

    op maps a batch of the integer tensors u_j = s_j b_j (span.scaled_batch)
    to per images of each, tensor j * per + i the i-th of u_j; it gets
    PASS_CELLS // growth terms at a time.  target.span.coordinates reads
    each image's coordinates c_k in integers and refuses one outside the
    target span (AssertionError); c_k is stored as c_k (L / s_j), L = lcm(s).
    """
    scales = mod.span.scales
    big = lcm(1, *scales)
    entries: dict = {}
    for first, part in mod.span.scaled_batch.chunks(PASS_CELLS // growth):
        images = target.span.coordinates(op(part))
        if None in images:
            raise AssertionError("target span is not stable under the map: an image leaves it")
        for t, coords in enumerate(images):
            j, i = divmod(t, per)
            f = big // scales[first + j]
            for k, c in coords.items():
                entries[i, k, first + j] = c * f
    return entries, big


def _coordinate_action(mod: RealizedModule, X) -> IntMatrix:
    """Matrix of the derivation action of the integer X on the module's
    basis coordinates: the span map of X, over the map's denominator."""
    entries, den = _span_map(mod, lambda part: lie_action(X, part), mod, 1)
    return IntMatrix(mod.dim, tuple(sorted((k, j, c) for (_, k, j), c in entries.items())), den)


def _wedge_action(X, basis) -> list[dict]:
    """Derivation action of X in gl(C^v) on Lambda^k(C^v), the sum of
    X_ba e_b ^ (e_a* -| -): the image of each e_K, K a sorted index tuple of
    the basis, as {sorted tuple: coefficient}."""
    images = letter_images(X)
    cols = []
    for K in basis:
        col: dict = {}
        for a in K:
            if a in images:
                rest = contract_f(a, {K: 1})
                for b, x in images[a]:
                    tensor_iadd(col, wedge_e(b, rest), x)
        cols.append(col)
    return cols


def _wedge_matrix(X, basis) -> IntMatrix:
    return IntMatrix.from_columns(basis, _wedge_action(X, basis))


def _one_box(mu: Partition, nu: Partition, max_rows: int) -> BoxPosition:
    mu, nu = check_partition(mu), check_partition(nu)
    for cand, box in pieri_add(mu, max_rows):
        if cand == nu:
            return box
    raise ValueError(f"{nu} is not a one-box addition of {mu} within {max_rows} rows")


# ---------------------------------------------------------------------------
# GL pencils


@lru_cache(maxsize=None)
def build_gl_pencil(mu: Partition, nu: Partition, v: int) -> Pencil:
    """The equivariant pencil V -> Hom(S_mu V, S_nu V) for a one-box pair:
    x_i gives c_nu of letter i inserted at the new box's slot."""
    mu, nu = check_partition(mu), check_partition(nu)
    box = _one_box(mu, nu, v)
    smod = schur_module(mu, v)
    tmod = schur_module(nu, v)
    pos = cell_slot(nu, box.row - 1, box.col - 1)
    # c_nu makes at most prod r_i! prod h_j! terms of a word
    growth = v * prod(factorial(r) for r in nu + conjugate(nu))
    entries, den = _span_map(smod, lambda part: apply_symmetrizer(part.with_letter_inserted(pos), nu),
                             tmod, v, growth)
    return Pencil.from_entries(entries, den, v, smod.dim, tmod.dim, BuildSpec("gl", (mu, nu, v)))


# ---------------------------------------------------------------------------
# Koszul pencils


@lru_cache(maxsize=None)
def build_koszul_pencil(k: int, v: int) -> Pencil:
    """Wedge pencil V -> Hom(Lambda^k V, Lambda^{k+1} V)."""
    if not 0 <= k < v:
        raise ValueError("need 0 <= k < v")
    src = list(combinations(range(v), k))
    tgt = list(combinations(range(v), k + 1))
    tgt_index = {K: r for r, K in enumerate(tgt)}
    entries = {(i, tgt_index[L], j): c for j, K in enumerate(src)
               for i in range(v) for L, c in wedge_e(i, {K: 1}).items()}
    return Pencil.from_entries(entries, 1, v, len(src), len(tgt), BuildSpec("koszul", (k, v)))


# ---------------------------------------------------------------------------
# Sp / SO pencils


def _build_form_pencil(smod: RealizedModule, tmod: RealizedModule,
                       box: BoxPosition, spec: BuildSpec) -> Pencil:
    """Entry (l, k, j) pairs c_nu^* b_k with e_l at slot pos and b_j in the
    other slots.  On module vectors c_nu^* is prod h_j! times the row
    passes a_nu, and two words pair to the product of B over their letters,
    which is nonzero only at a word's partner word; so the entries are one
    sorted join on partner-word codes of the integer-scaled bases u = s b.
    Entry (l, k, j) of the u is t_k s_j times that of the b, so it is
    stored times (Lt / t_k)(Ls / s_j) over Lt Ls, Lt and Ls the lcms of the
    target and source scales t and s."""
    form = smod.form
    v = form.dim
    nu = tmod.weight
    pos = cell_slot(nu, box.row - 1, box.col - 1)
    partner, value = form.partners

    # each source word u_j[w] becomes (code of its partner word, j, u_j[w] B(w, partner))
    src = smod.span.scaled_batch
    letters = src.letters()
    pcode = partner[letters] @ place_values(v, src.degree)
    order = np.argsort(pcode, kind="stable")
    pcode, pj = pcode[order], src.idx[order]
    pval = src.coef.astype(coef_dtype(max_abs(src.coef) * max_abs(value) ** src.degree))
    pval = (pval * np.prod(value[letters], axis=1))[order]

    columns = prod(factorial(h) for h in conjugate(nu))
    ls, lt = lcm(1, *smod.span.scales), lcm(1, *tmod.span.scales)
    src_factor = [ls // s for s in smod.span.scales]
    tgt_factor = [columns * (lt // t) for t in tmod.span.scales]
    entries: dict = {}
    target = tmod.span.scaled_batch
    for first, part in target.chunks(PASS_CELLS // prod(factorial(r) for r in nu)):
        dk = symmetrize_rows(part, nu)
        letter, rest = dk.cut(pos)
        lo = np.searchsorted(pcode, rest)
        owner, at = ragged(lo, np.searchsorted(pcode, rest, "right") - lo)
        # each sum has at most len(at) terms
        dtype = coef_dtype(len(at) * max_abs(dk.coef) * max_abs(value) * max_abs(pval))
        keys, sums = sum_by_key(
            ((partner[letter] * part.n + dk.idx) * smod.dim)[owner] + pj[at],
            (dk.coef.astype(dtype) * value[letter])[owner] * pval.astype(dtype)[at])
        for key, val in zip(keys.tolist(), sums.tolist()):
            key, j = divmod(key, smod.dim)
            pl, k = divmod(key, part.n)
            entries[pl, first + k, j] = val * tgt_factor[first + k] * src_factor[j]
    return Pencil.from_entries(entries, lt * ls, v, smod.dim, tmod.dim, spec)


@lru_cache(maxsize=None)
def build_sp_pencil(mu: Partition, nu: Partition, two_n: int) -> Pencil:
    mu, nu = check_partition(mu), check_partition(nu)
    box = _one_box(mu, nu, two_n // 2)
    return _build_form_pencil(
        symplectic_module(mu, two_n), symplectic_module(nu, two_n), box,
        BuildSpec("sp", (mu, nu, two_n)),
    )


@lru_cache(maxsize=None)
def build_so_pencil(mu: Partition, nu: Partition, m: int) -> Pencil:
    mu, nu = check_partition(mu), check_partition(nu)
    box = _one_box(mu, nu, m)
    return _build_form_pencil(
        orthogonal_module(mu, m), orthogonal_module(nu, m), box,
        BuildSpec("so", (mu, nu, m)),
    )


# ---------------------------------------------------------------------------
# spin pencil


@lru_cache(maxsize=None)
def build_spin_pencil(n: int) -> Pencil:
    """psi: Delta+ -> Hom(W, Delta-), delta acting by Clifford multiplication."""
    ss = spin_space(n)
    even, odd = ss.even_basis, ss.odd_basis
    odd_index = {I: i for i, I in enumerate(odd)}
    dim_w = 2 * n
    entries = {
        (i, odd_index[J], j): c
        for i, I in enumerate(even) for j in range(dim_w)
        for J, c in clifford_unit(j, {I: 1}, n).items()
    }
    labels = tuple(
        "delta_" + ("".join(str(i + 1) for i in I) if I else "0") for I in even
    )
    return Pencil.from_entries(entries, 1, len(even), dim_w, len(odd),
                               BuildSpec("spin", (n,)), labels)


def spin_kernel_vector(delta: dict) -> list[int]:
    """The kernel line of psi_delta from the graded pieces of delta, n = 5.

    delta = delta0 + delta2 + delta4 in Lambda(even) E; the result lives in
    W = E + F: the E-part is the contraction of delta2 with the functional
    delta4* (Lambda^4 E identified with E* via the volume form), the F-part
    is (delta0 delta4 - 1/2 delta2 ^ delta2) under Lambda^4 E = F.  Returns
    the zero vector on the degenerate locus (e.g. pure spinors).  delta
    is integral, and so is the result: the coefficients of delta2 ^ delta2
    are twice Pfaffians.
    """
    n = 5
    e_part = [0] * n
    f_part = [0] * n
    d0 = delta.get((), 0)
    d2 = {I: c for I, c in delta.items() if len(I) == 2}
    d4 = {I: c for I, c in delta.items() if len(I) == 4}
    # delta4* as an F-vector, then contract into delta2
    for J, c in d4.items():
        comp, sign = complement_sign(J, n)
        contracted = clifford_unit(n + comp[0], d2, n)
        # contraction convention: delta4* pairs with the *second* factor of
        # delta2, opposite to the f-contraction of clifford_unit
        for (i,), x in contracted.items():
            e_part[i] -= sign * c * x
    # (d0 d4 - 1/2 d2 ^ d2)^# in F
    top4 = tensor_iadd({J: d0 * c for J, c in d4.items()},
                       {J: c // 2 for J, c in wedge(d2, d2).items()}, -1)
    for J, c in top4.items():
        comp, sign = complement_sign(J, n)
        f_part[comp[0]] += sign * c
    return e_part + f_part


# ---------------------------------------------------------------------------
# adjoint pencils


def sl_basis(a: int) -> list[tuple[tuple[int, ...], ...]]:
    """Basis of sl_a: E_ij for i != j, then H_k = E_kk - E_{k+1,k+1}."""
    return ([square_matrix(a, {(i, j): 1}) for i in range(a) for j in range(a) if i != j]
            + [square_matrix(a, {(k, k): 1, (k + 1, k + 1): -1}) for k in range(a - 1)])


@lru_cache(maxsize=None)
def build_adjoint_pencil(a: int) -> Pencil:
    """phi: Lambda^3 A -> Hom(sl(A), Lambda^3 A), phi_omega(X) = X . omega."""
    if a < 3:
        raise ValueError("need a >= 3")
    basis3 = list(combinations(range(a), 3))
    index3 = {K: i for i, K in enumerate(basis3)}
    sl = sl_basis(a)
    entries = {}
    for col, X in enumerate(sl):
        for j, image in enumerate(_wedge_action(X, basis3)):
            for L, c in image.items():
                # phi_{e_K}(X) = X . e_K
                entries[j, index3[L], col] = c
    labels = tuple("w_" + "".join(str(x + 1) for x in K) for K in basis3)
    return Pencil.from_entries(entries, 1, len(basis3), len(sl), len(basis3),
                               BuildSpec("adjoint", (a,)), labels)


# ---------------------------------------------------------------------------
# equivariance data, derived from the build spec on demand


def _gl_equivariance(mu: Partition, nu: Partition, v: int) -> list[EquivarianceData]:
    smod, tmod = schur_module(mu, v), schur_module(nu, v)
    return [
        EquivarianceData(IntMatrix.from_dense(X), _coordinate_action(smod, X),
                         _coordinate_action(tmod, X))
        for X in chevalley_generators(v)
    ]


def _koszul_equivariance(k: int, v: int) -> list[EquivarianceData]:
    src = list(combinations(range(v), k))
    tgt = list(combinations(range(v), k + 1))
    return [
        EquivarianceData(IntMatrix.from_dense(X), _wedge_matrix(X, src), _wedge_matrix(X, tgt))
        for X in chevalley_generators(v)
    ]


def _form_equivariance(smod: RealizedModule, tmod: RealizedModule) -> list[EquivarianceData]:
    # the target coordinates pair against the target basis: rho_t = -rho^T
    out = []
    for X in form_lie_basis(smod.form):
        rho = _coordinate_action(tmod, X)
        rho_t = IntMatrix(rho.dim, tuple(sorted((c, r, -x) for r, c, x in rho.entries)), rho.den)
        out.append(EquivarianceData(IntMatrix.from_dense(X), _coordinate_action(smod, X), rho_t))
    return out


def _spin_equivariance(n: int) -> list[EquivarianceData]:
    # spin_lie_action is 4 F_ab and spin_lie_on_w is 2 [F_ab, -]
    ss = spin_space(n)

    def spin_matrix(a, b, basis):
        cols = [spin_lie_action(a, b, {I: 1}, n) for I in basis]
        return replace(IntMatrix.from_columns(basis, cols), den=4)

    return [
        EquivarianceData(spin_matrix(a, b, ss.even_basis),
                         replace(IntMatrix.from_dense(spin_lie_on_w(a, b, n)), den=2),
                         spin_matrix(a, b, ss.odd_basis))
        for a, b in spin_lie_generators(n)
    ]


def _sl_ad(Y: Sequence[Sequence], a: int) -> IntMatrix:
    """ad_Y on sl_a in the sl_basis coordinates, in integers: the bracket
    of each entry of Y with each entry of a basis element is
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.  An off-diagonal E_il is
    its own coordinate; the coordinate of a traceless matrix on H_k is
    d_k = sum_{l<=k} m_ll, so a diagonal E_ll adds to each H_k with k >= l."""
    def sparse(X):
        return {(i, j): x for i, row in enumerate(X) for j, x in enumerate(row) if x}

    off = [(i, j) for i in range(a) for j in range(a) if i != j]  # sl_basis order
    index = {ij: n for n, ij in enumerate(off)}
    y = sparse(Y)
    entries: dict[tuple[int, int], int] = {}

    def add(r: int, c: int, col: int, v: int) -> None:
        rows = (index[r, c],) if r != c else range(len(off) + r, len(off) + a - 1)
        for n in rows:
            entries[n, col] = entries.get((n, col), 0) + v

    for col, X in enumerate(sl_basis(a)):
        X = sparse(X)
        for (i, j), u in y.items():
            for (k, l), x in X.items():
                if j == k:
                    add(i, l, col, u * x)
                if l == i:
                    add(k, j, col, -u * x)
    return IntMatrix.from_entries(len(off) + a - 1, entries)


def _adjoint_equivariance(a: int) -> list[EquivarianceData]:
    # under Y in sl(A): rho_source = ad_Y, rho_target and the variable
    # action are both the wedge action of Y
    basis3 = list(combinations(range(a), 3))
    out = []
    for Y in chevalley_generators(a):
        wedge = _wedge_matrix(Y, basis3)
        out.append(EquivarianceData(wedge, _sl_ad(Y, a), wedge))
    return out


@lru_cache(maxsize=None)
def equivariance_data(spec: BuildSpec) -> tuple[EquivarianceData, ...]:
    """The Lie-algebra generators of the spec's group with their actions on
    the variables, the source and the target of the pencil it builds.

    Sp and SO take the full basis of their form's Lie algebra, spin all of
    so(2n).  GL, Koszul and adjoint take only the Chevalley generators
    E_{k,k+1} and E_{k+1,k} of sl_v, which is enough for the transitivity
    certificate: the X in gl_v under which a pencil is equivariant form a
    Lie subalgebra (each action here is a Lie algebra representation);
    these generators generate sl_v, so the pencil is SL_v-equivariant; and
    SL_v is transitive on V minus 0 for v >= 2.  For v = 1, where sl_1 = 0
    and the projective base is one point, the identity is checked instead.
    """
    if spec.kind in ("sp", "so"):
        realize = symplectic_module if spec.kind == "sp" else orthogonal_module
        mu, nu, dim = spec.args
        return tuple(_form_equivariance(realize(mu, dim), realize(nu, dim)))
    derive = {"gl": _gl_equivariance, "koszul": _koszul_equivariance,
              "spin": _spin_equivariance, "adjoint": _adjoint_equivariance}[spec.kind]
    return tuple(derive(*spec.args))


# ---------------------------------------------------------------------------
# the induced operator on pairs of Schur modules


@lru_cache(maxsize=None)
def _theta_sides(lam: Partition, lam_p: Partition, mu: Partition, mu_p: Partition,
                 a: int, b: int):
    """The two sides of theta_map for A of dimension a and B of dimension b,
    which do not depend on X: the A side {(alpha, ka, ja): va} over da, the
    B side grouped by beta, {beta: [(kb, jb, vb)]}, over db, and the
    dimensions (S_lam A, S_lam' A) and (S_mu B, S_mu' B).  Shared by every
    caller: read only."""
    box_rm = _one_box(lam_p, lam, a)
    box_add = _one_box(mu, mu_p, b)
    sa, sap = schur_module(lam, a), schur_module(lam_p, a)
    sb, sbp = schur_module(mu, b), schur_module(mu_p, b)
    slot_rm = cell_slot(lam, box_rm.row - 1, box_rm.col - 1)
    slot_add = cell_slot(mu_p, box_add.row - 1, box_add.col - 1)
    # the A side holds c_lam' of what u_j holds with letter alpha at the
    # removed slot, the B side c_mu' of u_j with letter beta inserted
    a_side, da = _span_map(sa, lambda part: apply_symmetrizer(part.split_at(slot_rm), lam_p),
                           sap, a)
    b_side, db = _span_map(sb, lambda part: apply_symmetrizer(
        part.with_letter_inserted(slot_add), mu_p), sbp, b)
    by_beta: dict = {}
    for (beta, kb, jb), vb in b_side.items():
        by_beta.setdefault(beta, []).append((kb, jb, vb))
    return a_side, da, by_beta, db, (sa.dim, sap.dim), (sb.dim, sbp.dim)


def theta_map(X: Sequence[Sequence], lam: Partition, lam_p: Partition,
              mu: Partition, mu_p: Partition) -> tuple[np.ndarray, int]:
    """Matrix of Theta_X: S_lam A x S_mu B -> S_lam' A x S_mu' B.

    lam' is lam minus one box and mu' is mu plus one box; X in Hom(A,B) is an
    a x b matrix sending the i-th basis vector of A to sum_j X[i][j] e_j.
    Rows are indexed by (target-A, target-B) pairs, columns by (source-A,
    source-B) pairs, both in row-major pair order.  X is an integer
    matrix.  Returns (rows, den): the matrix is rows / den, rows an object
    array of Python ints.
    """
    lam, lam_p = check_partition(lam), check_partition(lam_p)
    mu, mu_p = check_partition(mu), check_partition(mu_p)
    a, b = len(X), len(X[0]) if X else 0
    a_side, da, by_beta, db, (sa, sap), (sb, sbp) = _theta_sides(lam, lam_p, mu, mu_p, a, b)
    # Theta_X sums X[alpha][beta] times both sides' products
    xs = {(alpha, beta): x for alpha, row in enumerate(X)
          for beta, x in enumerate(row) if x}
    sums: dict = {}
    for (alpha, ka, ja), va in a_side.items():
        for beta, terms in by_beta.items():
            x = xs.get((alpha, beta), 0) * va
            if not x:
                continue
            for kb, jb, vb in terms:
                at = (ka * sbp + kb, ja * sb + jb)
                sums[at] = sums.get(at, 0) + x * vb
    out = np.zeros((sap * sbp, sa * sb), dtype=object)
    for (r, c), n in sums.items():
        out[r, c] = n
    return out, da * db


def hyperplane_bound_criterion(lam: Partition, mu: Partition, p: int) -> tuple[bool, int]:
    """Dimension-count test for bounded rank of the hyperplane-restriction map.

    mu must be lam plus two boxes in different rows.  Compares the dimension
    drops s_lam(k) - s_mu(k) at k = 2p and k = 2p+1; when the drop at 2p is
    strictly larger, every evaluation has a kernel of at least that size and
    the pencil has bounded rank.  Returns (certified, kernel lower bound).
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if size(mu) != size(lam) + 2:
        raise ValueError("mu must have exactly two boxes more than lam")
    padded = list(lam) + [0] * (len(mu) - len(lam))
    diffs = [mu[i] - padded[i] for i in range(len(mu))]
    if any(d < 0 for d in diffs) or max(diffs) != 1:
        raise ValueError("the two added boxes must lie in different rows")
    if p < 1:
        raise ValueError("p must be positive")
    drop_even = gl_dim(lam, 2 * p) - gl_dim(mu, 2 * p)
    drop_odd = gl_dim(lam, 2 * p + 1) - gl_dim(mu, 2 * p + 1)
    return (drop_even > drop_odd, drop_even)
