"""Construction of the matrix pencils: GL/Sp/SO one-box pencils, Koszul
pencils, the spin pencil, adjoint-action pencils, and the induced operator
on pairs of Schur modules.

A pencil maps a source module (dimension b) to a target module (dimension c):
evaluate(x) = sum x_i A_i is a c x b matrix.  The coefficients are stored
sparse, as sorted (var, row, col, num) integer entries with one global
denominator, so they reduce mod any prime not dividing it, and are computed
on as COO arrays, one per field (Pencil.coo).  A Lie algebra action is a
pencil in its generators, stored the same way: the actions that certify
equivariance are each one Pencil, generator g's matrix its evaluation at
e_g over the denominator.

Every map out of a realized module is read by _span_map, as COO arrays in
integers over one denominator, and handed to Pencil.from_entries or to the
action as such; the joins that assemble and check them are a searchsorted
(tensors.matches) and one tensors.sum_by_key, with no dict per entry.

For Sp/SO pencils the target coordinates are taken against the form-pairing
with the target basis (the adjoint of the symmetrizer), which differs from
the honest projection by an invertible change of target basis; ranks, kernels
and source-side identities are unaffected, and the stored target action is
adjusted accordingly (rho_t = -rho^T for the directly realized action rho).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    coef_dtype,
    distinct_primitive_rows,
    int_array,
    max_abs,
    qq_rref,
    rref_kernel,
    stack_buffers,
    stack_layout,
    stack_product,
)
from .modules import (
    RealizedModule,
    clifford_unit,
    complement_sign,
    contract_f,
    form_lie_generators,
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
    matches,
    place_values,
    square_matrix,
    sum_by_key,
    symmetrize_rows,
    tensor_iadd,
)


# nvars x target x source bound on a pencil, checked before anything is
# allocated; the largest catalog pencil (so-hook-corank, m=6) has 774,144.
# nvars x nvars is bounded too: the sampled mode forms the nvars coordinate
# points, so a pencil document may hold at most 1,024 variables
MAX_PENCIL_CELLS = 1 << 20
# bytes of a pencil file that `verify` reads: a pencil has at most
# MAX_PENCIL_CELLS entries, and canonical files take 99-103 bytes per entry
MAX_PENCIL_BYTES = 128 * MAX_PENCIL_CELLS
# JSON values that a pencil file may hold, counted as its opening brackets
# and braces and its commas: six for each entry (its brace, its four inner
# commas and the comma after it), and the header's.  That is at most 1,024
# labels and a record that admit passes, whose partitions have at most 101
# rows (generator_cells bounds v, N and m), so 4,096 values are ample
MAX_PENCIL_VALUES = 6 * MAX_PENCIL_CELLS + 4096

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

    def shape(self) -> tuple[int, int, int]:
        """(nvars, source dim, target dim) of the pencil this spec builds,
        from closed forms, which admit prices.  ValueError where a closed
        form is undefined (SO m = 1, odd Sp N), the builder refuses the
        record (nu zero or not mu plus a box), or a guard before the closed
        forms finds the pencil past MAX_PENCIL_CELLS coefficient cells: spin
        n or Koszul min(k, v - k) past the bound's bit length, a last field
        (v, N, m or a) past the bound, or for gl, sp and so a partition of
        more boxes or n times the _dim_floor of both partitions, each at
        least 1, past it; so the Weyl products run at n <= 1024 on one row
        or a power of det with a row changed, else at n <= 101."""
        kind, a, cells = self.kind, self.args, MAX_PENCIL_CELLS
        bits = cells.bit_length()
        past = (a[0] > bits) if kind == "spin" else (a[-1] > cells)
        if kind == "koszul" and not past:
            past = min(a[0], a[1] - a[0]) > bits
        if kind in ("gl", "sp", "so") and not past:
            n, floors = a[2], [max(_dim_floor(kind, lam, a[2]), 1) for lam in a[:2]]
            past = max(size(a[0]), size(a[1])) > cells or n * floors[0] * floors[1] > cells
        if past:
            raise ValueError(f"{kind} pencil exceeds {cells} coefficient cells "
                             "(variables x source x target)")
        closed = {"koszul": lambda k, v: (v, comb(v, k), comb(v, k + 1)),
                  "adjoint": lambda d: (comb(d, 3), d * d - 1, comb(d, 3)),
                  "spin": lambda n: (2 ** n // 2, 2 * n, 2 ** n // 2)}  # Delta+ -> Hom(W, Delta-)
        if kind in closed:
            return closed[kind](*a)
        _one_box(a[0], a[1], n // 2 if kind == "sp" else n)
        dim = {"gl": gl_dim, "sp": sp_module_dim, "so": so_module_dim}[kind]
        if not (target := dim(a[1], n)):  # so past m in two columns: mu's rows unbounded
            raise ValueError(f"{a[1]} is out of range for SO({n})")
        return n, dim(a[0], n), target


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
    def from_entries(cls, coo, den: int, nvars: int, source_dim: int,
                     target_dim: int, spec: BuildSpec,
                     var_labels: Optional[tuple] = None) -> Pencil:
        """The built pencil of the integer coefficients num / den at (var,
        row, col), COO arrays coo = (var, row, col, num) over one common
        denominator den >= 1, equal cells summed, stored with the overall
        integer content divided out (a global scalar, irrelevant to every
        rank property but essential for reductions modulo small primes).
        The stored pencil does not depend on which common denominator is
        given: over den = m D, D the least one, every num and so their gcd g
        is m times its value over D, so num / g and den / gcd(den, g) come
        out the same.  The variables are labelled x_1..x_nvars unless
        var_labels is given.  Parsed files and group actions (_action) keep
        their values exactly: dividing out the content would rescale them."""
        *cell, num = _summed_cells(coo, target_dim, source_dim)
        if not len(num):
            raise AssertionError(f"{spec.kind} pencil is identically zero")
        g = gcd(*num.tolist())
        labels = var_labels or tuple(f"x_{i+1}" for i in range(nvars))
        return cls(nvars, source_dim, target_dim, _tuples(*cell, num // g),
                   den // gcd(den, g), labels, spec)

    @cached_property
    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The coefficients as read-only COO arrays (var, row, col, num), in
        coeffs order; num is int64, or Python ints from 2^62 on
        (linalg.int_array).  Cached: every caller shares them."""
        fields = list(zip(*self.coeffs)) or [()] * 4
        out = (*(np.array(f, dtype=np.int64) for f in fields[:3]), int_array(list(fields[3])))
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def torus(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(w, y, z, block): integer rows (k, s), (k, c) and (k, b) that
        span the solutions of y_r - z_c = w_v over every nonzero coefficient
        (v, r, c), so that A(t^w x) = D_y(t) A(x) D_z(t)^-1, and the block
        of each cell (r, c), a (c, b) array of labels 0, 1, ...

        A BFS spanning forest of the row-column graph gives each node a
        potential in Z^s, its y_r or z_c as a function of w; each other
        coefficient gives one constraint on w, and one qq_rref call their
        kernel.  Each connected component adds one free shift.  A cell's
        block is (the component of r, that of c, y_r - z_c on the kernel):
        A(x) is block diagonal over the components, and so are its kernel
        and cokernel.  Cached: every caller shares them."""
        var, row, col, _ = self.coo
        c, b, s = self.target_dim, self.source_dim, self.nvars
        adj = [[] for _ in range(c + b)]  # each coefficient from either end
        for v, r, j in zip(var.tolist(), row.tolist(), (c + col).tolist()):
            adj[r].append((j, v, -1))  # z_c = y_r - w_v
            adj[j].append((r, v, 1))
        comp, pot = [-1] * (c + b), np.zeros((c + b, s), dtype=np.int64)
        for root in range(c + b):
            if comp[root] < 0:
                comp[root], queue = root, [root]
                for node in queue:  # along each tree edge
                    for nb, v, sign in adj[node]:
                        if comp[nb] < 0:
                            comp[nb], pot[nb] = root, pot[node]
                            pot[nb, v] += sign
                            queue.append(nb)
        cons = pot[row] - pot[c + col]
        cons[np.arange(len(var)), var] -= 1
        lattice = rref_kernel(*qq_rref([distinct_primitive_rows(cons)])[0], s)
        roots = np.flatnonzero(np.array(comp) == np.arange(c + b))
        comp = np.searchsorted(roots, comp)
        yz = np.concatenate([lattice @ pot.T, np.arange(len(roots))[:, None] == comp])
        w = np.concatenate([lattice, np.zeros((len(roots), s), dtype=np.int64)])
        k = len(lattice)
        label = np.concatenate([np.add.outer(comp[:c] * (c + b), comp[c:])[None],
                                yz[:k, :c, None] - yz[:k, None, c:]]).reshape(k + 1, -1)
        order = np.lexsort(label)
        step = np.diff(label[:, order], axis=1, prepend=label[:, order[:1]] - 1).any(axis=0)
        block = np.empty(c * b, dtype=np.int64)
        block[order] = np.cumsum(step) - 1  # numbered in sorted order
        return w, yz[:, :c], yz[:, c:], block.reshape(c, b)

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
        var, row, col, num = self.coo
        a[var, row, col] = (num + p // 2) % p - p // 2
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
        laid = stack_product(by_vars, pts, p, f, e[:cells].reshape(rows, len(pts)))
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
    forms for spec: their number, 2 rank(g), times d^2, d the dimension of
    the natural representation (2n for spin).  gl, Koszul and adjoint take
    the 2(d-1) Chevalley generators of sl_d (the identity alone for d = 1);
    sp_d, so_d and spin's so_2n take 2 floor(d/2), except so_2, which takes
    its one basis element."""
    d = 2 * spec.args[0] if spec.kind == "spin" else spec.args[-1]
    if spec.kind in ("sp", "so", "spin"):
        count = 1 if spec.kind == "so" and d <= 2 else d - d % 2
    else:
        count = max(2 * (d - 1), 1)
    return count * d * d


def word_terms(lam: Partition, n: int) -> int:
    """min(n^|lam|, gl_dim(lam, n) prod r_i!) prod h_j! (r_i the rows, h_j
    the columns) bounds every batch apply_symmetrizer forms realizing lam on
    n letters: a row pass turns each semistandard tableau, fixed by its row
    contents, into at most prod r_i! words distinct over all tableaux, and a
    column pass multiplies them by at most h_j!.  Powers and factorials cut
    at MAX_PENCIL_CELLS.bit_length() leave it exact or past the bound."""
    top = MAX_PENCIL_CELLS.bit_length()
    rows, cols = (prod(factorial(min(x, top)) for x in xs) for xs in (lam, conjugate(lam)))
    return min(n ** min(size(lam), top), gl_dim(lam, n) * rows) * cols


def admit(nvars: int, source_dim: int, target_dim: int, spec: Optional[BuildSpec] = None):
    """The one admission rule for untrusted input, before anything is built:
    ValueError naming the first past MAX_PENCIL_CELLS of the coefficient
    cells, the nvars^2 cells of the coordinate points, and with a spec its
    generator_cells and its two modules' words, word_terms times letters."""
    cells = MAX_PENCIL_CELLS
    if nvars * target_dim * source_dim > cells:
        raise ValueError(f"pencil of {nvars} x {target_dim} x {source_dim} exceeds "
                         f"{cells} coefficient cells")
    if nvars * nvars > cells:
        raise ValueError(f"pencil of {nvars} variables exceeds {cells} cells of coordinate points")
    if spec is not None and generator_cells(spec) > cells:
        raise ValueError(f"the {spec.kind} equivariance generators exceed {cells} cells")
    if spec is not None and spec.kind in ("gl", "sp", "so") and sum(
            word_terms(lam, spec.args[2]) * size(lam) for lam in spec.args[:2]) > cells:
        raise ValueError(f"the {spec.kind} module words exceed {cells} cells")


def check_equivariance(p: Pencil) -> bool:
    """Verify rho_t A_i - A_i rho_s = sum_b x_on_vars[b][i] A_b exactly for
    every generator in equivariance_data(p.spec) and every variable i, in
    integers (times the lcm of the three denominators; the pencil's own
    cancels): the terms of all generators at once, from three joins of the
    pencil's COO arrays with the actions', summed by one sum_by_key keyed
    by (generator, variable, row, col).  They are int64 where a bound on
    every sum fits, else Python ints.  False unless describes(p.spec, p),
    ValueError when admit refuses the spec, both before any module is
    built."""
    if not describes(p.spec, p):
        return False
    admit(p.nvars, p.source_dim, p.target_dim, p.spec)
    x_on_vars, rho_source, rho_target = equivariance_data(p.spec)
    m = lcm(x_on_vars.denom, rho_source.denom, rho_target.denom)
    var, row, col, a = p.coo
    # rho_t[k, r] A_i[r, c] at (k, c), each action sorted by the index it joins on
    g, k, r, t = _sorted_by(rho_target.coo, 2)
    owner, at = matches(r, row)
    terms = [(g[at], var[owner], k[at], col[owner], t[at], a[owner], m // rho_target.denom)]
    # - A_i[r, c] rho_s[c, j] at (r, j)
    g, c, j, s = _sorted_by(rho_source.coo, 1)
    owner, at = matches(c, col)
    terms.append((g[at], var[owner], row[owner], j[at], s[at], a[owner], -m // rho_source.denom))
    # - X[b, i] A_b[r, c] at (r, c); the pencil is sorted by variable
    g, b, i, x = x_on_vars.coo
    owner, at = matches(var, b)
    terms.append((g[owner], i[owner], row[at], col[at], x[owner], a[at], -m // x_on_vars.denom))
    # each term set is (generator, variable, row, col, factor, factor, scale),
    # and a sum has at most all the terms
    dtype = coef_dtype(sum(len(t[4]) for t in terms)
                       * max(max_abs(u) * max_abs(v) * abs(f) for *_, u, v, f in terms))
    keys, _ = sum_by_key(
        np.concatenate([((g * p.nvars + i) * p.target_dim + r) * p.source_dim + c
                        for g, i, r, c, *_ in terms]),
        np.concatenate([u.astype(dtype) * v.astype(dtype) * f for *_, u, v, f in terms]))
    return not len(keys)


def _sorted_by(coo, field: int) -> list[np.ndarray]:
    """COO arrays in the order of one field, stably."""
    order = np.argsort(coo[field], kind="stable")
    return [x[order] for x in coo]


def _summed_cells(coo, rows: int, cols: int) -> list[np.ndarray]:
    """COO arrays (var, row, col, num) of a pencil with rows x cols
    matrices, sorted by cell, equal cells summed and zeros dropped."""
    var, row, col = (np.asarray(x, dtype=np.int64) for x in coo[:3])
    cell, num = sum_by_key((var * rows + row) * cols + col, np.asarray(coo[3]))
    var, cell = np.divmod(cell, rows * cols)
    return [var, *np.divmod(cell, cols), num]


def _tuples(*coo) -> tuple:
    """Pencil.coeffs of COO arrays: (var, row, col, num) tuples of ints."""
    return tuple(zip(*(x.tolist() for x in coo)))


def _action(coo, gens: int, dim: int, den: int = 1) -> Pencil:
    """The action of a Lie algebra on a dim-space as a pencil in gens
    generators: its matrix at e_g is num / den at (row, col) over the COO
    arrays coo = (g, row, col, num), stored exactly."""
    return Pencil(gens, dim, dim, _tuples(*_summed_cells(coo, dim, dim)), den, ())


def _dense_action(ms, den: int = 1) -> Pencil:
    """The action whose generator g has the integer matrix ms[g] / den."""
    m = np.array(ms, dtype=np.int64)
    g, r, c = np.nonzero(m)
    return _action((g, r, c, m[g, r, c]), len(m), m.shape[1], den)


def _columns(cols: Sequence[Sequence[dict]], basis: Sequence) -> tuple:
    """COO arrays (g, row, col, num) of the integer matrices whose column j
    of matrix g is cols[g][j], as {basis element: value}."""
    index = {K: r for r, K in enumerate(basis)}
    coo = [(g, index[K], j, x) for g, m in enumerate(cols)
           for j, col in enumerate(m) for K, x in col.items()]
    return tuple(np.array(coo, dtype=np.int64).reshape(-1, 4).T)


def _span_map(mod: RealizedModule, op, target: RealizedModule, per: int,
              growth: int = 1) -> tuple[tuple, int]:
    """((i, k, j, n), L), COO arrays: n / L is coordinate k in the target's
    basis of the i-th image under op of the module's basis vector b_j.

    op maps a batch of the integer tensors u_j = s_j b_j (span.scaled_batch)
    to per images of each, tensor j * per + i the i-th of u_j; it gets
    PASS_CELLS // growth terms at a time.  target.span.coordinates reads
    each image's coordinates c_k in integers and refuses one outside the
    target span (AssertionError); c_k is stored as c_k (L / s_j), L = lcm(s).
    """
    big, factor = mod.span.scale_factors
    parts = []
    for first, part in mod.span.scaled_batch.chunks(PASS_CELLS // growth):
        image, k, c, outside = target.span.coordinates(op(part))
        if outside.any():
            raise AssertionError("target span is not stable under the map: an image leaves it")
        j, i = np.divmod(image, per)
        dtype = coef_dtype(max_abs(c) * max_abs(factor))
        parts.append((i, k, first + j, c.astype(dtype) * factor.astype(dtype)[first + j]))
    return tuple(map(np.concatenate, zip(*parts))), big


def _coordinate_action(mod: RealizedModule, xs, dual: bool = False) -> Pencil:
    """The derivation action of the integer X_g of xs on the module's basis
    coordinates, over the map's denominator: one span map of all of them,
    image j * G + g that of X_g on basis vector j.  With dual, the action
    -rho^T on coordinates taken against the basis by a form."""
    (g, k, j, c), den = _span_map(mod, lambda part: lie_action(xs, part), mod, len(xs), len(xs))
    return _action((g, j, k, -c) if dual else (g, k, j, c), len(xs), mod.dim, den)


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


def _wedge_actions(xs, basis) -> tuple:
    """COO arrays (g, row, col, num) of the derivation action of each X_g
    in xs on Lambda^k(C^v), on its basis of sorted index tuples."""
    return _columns([_wedge_action(X, basis) for X in xs], basis)


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
    coo, den = _span_map(smod, lambda part: apply_symmetrizer(part.with_letter_inserted(pos), nu),
                         tmod, v, growth)
    return Pencil.from_entries(coo, den, v, smod.dim, tmod.dim, BuildSpec("gl", (mu, nu, v)))


# ---------------------------------------------------------------------------
# Koszul pencils


@lru_cache(maxsize=None)
def build_koszul_pencil(k: int, v: int) -> Pencil:
    """Wedge pencil V -> Hom(Lambda^k V, Lambda^{k+1} V)."""
    if not 0 <= k < v:
        raise ValueError("need 0 <= k < v")
    src = list(combinations(range(v), k))
    tgt = list(combinations(range(v), k + 1))
    coo = _columns([[wedge_e(i, {K: 1}) for K in src] for i in range(v)], tgt)
    return Pencil.from_entries(coo, 1, v, len(src), len(tgt), BuildSpec("koszul", (k, v)))


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
    (ls, src_factor), (lt, tgt_factor) = smod.span.scale_factors, tmod.span.scale_factors
    tgt_factor = int_array([columns * f for f in tgt_factor.tolist()])  # Python ints: no wrap
    parts = []
    target = tmod.span.scaled_batch
    for first, part in target.chunks(PASS_CELLS // prod(factorial(r) for r in nu)):
        dk = symmetrize_rows(part, nu)
        letter, rest = dk.cut(pos)
        owner, at = matches(pcode, rest)
        # each sum has at most len(at) terms
        dtype = coef_dtype(len(at) * max_abs(dk.coef) * max_abs(value) * max_abs(pval))
        keys, sums = sum_by_key(
            ((partner[letter] * part.n + dk.idx) * smod.dim)[owner] + pj[at],
            (dk.coef.astype(dtype) * value[letter])[owner] * pval.astype(dtype)[at])
        keys, j = np.divmod(keys, smod.dim)
        pl, k = np.divmod(keys, part.n)
        dtype = coef_dtype(max_abs(sums) * max_abs(tgt_factor) * max_abs(src_factor))
        parts.append((pl, first + k, j, sums.astype(dtype) * tgt_factor.astype(dtype)[first + k]
                      * src_factor.astype(dtype)[j]))
    coo = [np.concatenate(x) for x in zip(*parts)]
    return Pencil.from_entries(coo, lt * ls, v, smod.dim, tmod.dim, spec)


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
    dim_w = 2 * n
    coo = _columns([[clifford_unit(j, {I: 1}, n) for j in range(dim_w)] for I in even], odd)
    labels = tuple(
        "delta_" + ("".join(str(i + 1) for i in I) if I else "0") for I in even
    )
    return Pencil.from_entries(coo, 1, len(even), dim_w, len(odd),
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
    sl = sl_basis(a)
    # phi_{e_K}(X) = X . e_K: the wedge action of X_g at (row, K) is entry (K, row, g)
    g, r, j, c = _wedge_actions(sl, basis3)
    labels = tuple("w_" + "".join(str(x + 1) for x in K) for K in basis3)
    return Pencil.from_entries((j, r, g, c), 1, len(basis3), len(sl), len(basis3),
                               BuildSpec("adjoint", (a,)), labels)


# ---------------------------------------------------------------------------
# equivariance data, derived from the build spec on demand


def _gl_equivariance(mu: Partition, nu: Partition, v: int) -> tuple[Pencil, Pencil, Pencil]:
    xs = chevalley_generators(v)
    return (_dense_action(xs), _coordinate_action(schur_module(mu, v), xs),
            _coordinate_action(schur_module(nu, v), xs))


def _koszul_equivariance(k: int, v: int) -> tuple[Pencil, Pencil, Pencil]:
    xs = chevalley_generators(v)
    src = list(combinations(range(v), k))
    tgt = list(combinations(range(v), k + 1))
    return (_dense_action(xs), _action(_wedge_actions(xs, src), len(xs), len(src)),
            _action(_wedge_actions(xs, tgt), len(xs), len(tgt)))


def _form_equivariance(smod: RealizedModule, tmod: RealizedModule) -> tuple[Pencil, Pencil, Pencil]:
    # the target coordinates pair against the target basis: rho_t = -rho^T
    xs = form_lie_generators(smod.form)
    return (_dense_action(xs), _coordinate_action(smod, xs),
            _coordinate_action(tmod, xs, dual=True))


def _spin_equivariance(n: int) -> tuple[Pencil, Pencil, Pencil]:
    # spin_lie_action is 4 F_ab and spin_lie_on_w is 2 [F_ab, -]
    ss, gens = spin_space(n), spin_lie_generators(n)

    def spin_action(basis):
        cols = [[spin_lie_action(a, b, {I: 1}, n) for I in basis] for a, b in gens]
        return _action(_columns(cols, basis), len(gens), len(basis), 4)

    return (spin_action(ss.even_basis),
            _dense_action([spin_lie_on_w(a, b, n) for a, b in gens], 2),
            spin_action(ss.odd_basis))


def _sl_ad(Y: Sequence[Sequence], a: int) -> np.ndarray:
    """ad_Y on sl_a in the sl_basis coordinates, as an int64 matrix: column
    j is the commutator Y X - X Y of the j-th basis element X.  An
    off-diagonal entry is its own coordinate, in sl_basis order; the
    coordinate of a traceless matrix M on H_k is sum_{l<=k} M_ll."""
    y = np.array(Y, dtype=np.int64)
    off = ~np.eye(a, dtype=bool)
    cols = []
    for X in sl_basis(a):
        x = np.array(X, dtype=np.int64)
        m = y @ x - x @ y
        cols.append(np.concatenate([m[off], np.cumsum(m.diagonal())[:-1]]))
    return np.array(cols).T


def _adjoint_equivariance(a: int) -> tuple[Pencil, Pencil, Pencil]:
    # under Y in sl(A): rho_source = ad_Y, rho_target and the variable
    # action are both the wedge action of Y
    ys = chevalley_generators(a)
    basis3 = list(combinations(range(a), 3))
    wedge = _action(_wedge_actions(ys, basis3), len(ys), len(basis3))
    return wedge, _dense_action([_sl_ad(Y, a) for Y in ys]), wedge


@lru_cache(maxsize=None)
def equivariance_data(spec: BuildSpec) -> tuple[Pencil, Pencil, Pencil]:
    """The actions (x_on_vars, rho_source, rho_target) of generators of the
    Lie algebra g of the spec's group on the variables, the source and the
    target of the pencil it builds, each a pencil in the generators
    (_action): generator g acts by its evaluation at e_g over its denom.

    Every kind takes the root vectors of the simple roots and of their
    negatives, 2 rank(g) elements: the Chevalley generators E_{k,k+1} and
    E_{k+1,k} of sl_v for GL, Koszul and adjoint, form_lie_generators for
    Sp and SO, and spin_lie_generators for spin.  They generate g, which is
    enough for an exact certificate: the X under which a pencil is
    equivariant form a Lie subalgebra (each action here is a Lie algebra
    representation), so it is all of g once it holds the generators.  For
    transitivity, the pencil is then SL_v-equivariant, and SL_v is
    transitive on V minus 0 for v >= 2.  For v = 1, where sl_1 = 0 and the
    projective base is one point, the identity is checked instead; so_2,
    abelian with no roots, takes its one basis element.  Each module's
    actions come from one _coordinate_action of all the generators.
    Cached: the actions' COO arrays are read-only.
    """
    if spec.kind in ("sp", "so"):
        realize = symplectic_module if spec.kind == "sp" else orthogonal_module
        mu, nu, dim = spec.args
        return _form_equivariance(realize(mu, dim), realize(nu, dim))
    derive = {"gl": _gl_equivariance, "koszul": _koszul_equivariance,
              "spin": _spin_equivariance, "adjoint": _adjoint_equivariance}[spec.kind]
    return derive(*spec.args)


# ---------------------------------------------------------------------------
# the induced operator on pairs of Schur modules


@lru_cache(maxsize=None)
def _theta_sides(lam: Partition, lam_p: Partition, mu: Partition, mu_p: Partition,
                 a: int, b: int):
    """The two sides of theta_map for A of dimension a and B of dimension b,
    which do not depend on X: the A side as COO arrays (alpha, ka, ja, va)
    over da, the B side (beta, kb, jb, vb) over db, each sorted by its
    letter, and the dimensions (S_lam A, S_lam' A) and (S_mu B, S_mu' B).
    Cached: the arrays are read-only."""
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
    a_side, b_side = _sorted_by(a_side, 0), _sorted_by(b_side, 0)
    for x in a_side + b_side:
        x.setflags(write=False)
    return a_side, da, b_side, db, (sa.dim, sap.dim), (sb.dim, sbp.dim)


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
    (alpha, ka, ja, va), da, (beta, kb, jb, vb), db, (sa, sap), (sb, sbp) = _theta_sides(
        lam, lam_p, mu, mu_p, a, b)
    # Theta_X sums X[alpha][beta] va vb over the joins of X with both sides
    x = int_array([v for row in X for v in row])
    live = np.flatnonzero(x)
    x_owner, at_a = matches(alpha, live // b)
    owner, at_b = matches(beta, live[x_owner] % b)
    # a sum has at most len(owner) terms
    dtype = coef_dtype(len(owner) * max_abs(x) * max_abs(va) * max_abs(vb))
    at_a = at_a[owner]
    keys, sums = sum_by_key(
        (ka[at_a] * sbp + kb[at_b]) * (sa * sb) + ja[at_a] * sb + jb[at_b],
        x.astype(dtype)[live[x_owner[owner]]] * va.astype(dtype)[at_a] * vb.astype(dtype)[at_b])
    out = np.zeros((sap * sbp, sa * sb), dtype=object)
    out.reshape(-1)[keys] = sums.tolist()
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
