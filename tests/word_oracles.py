"""Word-by-word dict computations that the batched kernels are tested
against, the entry-by-entry pencil-file document builder and reader that
the canonical writer and the column-wise reader are tested against, the
Fraction form of the Weyl dimension formula that the integer one is tested
against, the per-coordinate randrange draw that the bulk one is tested
against, the full basis of a form's Lie algebra that its generating set is
tested against, readers of rational rows (reduce_mod, mat_mod, integer_rows)
that turn Fraction test data into the integer input of linalg, the
growing echelon with whole rows added and its RREF read back,
modp_kernel's square kernels read back as row bases, the dense
incidence kernel that Pencil.torus is tested against, the one-list
sampled verdict that the blocked one is tested against, the exhaustive
verdict over every point that the one over torus orbits is tested
against, a span's
coordinates read back as one dict per tensor, and the diagram containment
and form values that only tests read, shared by the test modules."""
import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from crpencils.analysis import RankReport, ranks_at, structured_points
from crpencils.catalog import FixtureParseError
from crpencils.linalg import (
    _gauss_jordan,
    _product,
    _reduced,
    _stack_ranks,
    modp_kernel,
    qq_rref,
    rref_kernel,
)
from crpencils.modules import schur_module
from crpencils.partitions import gl_dim, normalize
from crpencils.pencils import MAX_PENCIL_CELLS, Pencil, _one_box
from crpencils.tensors import apply_symmetrizer, cell_slot, letter_images


def fraction_rref(rows):
    """Gauss-Jordan over Q in Fractions: the oracle for qq_rref."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def qq_kernel(rows, ncols=None):
    """The right kernel of one integer matrix, as rref_kernel reads it off
    its qq_rref; the identity when it has no row."""
    ncols = (len(rows[0]) if len(rows) else 0) if ncols is None else ncols
    return rref_kernel(*qq_rref([rows])[0], ncols) if len(rows) else np.eye(ncols, dtype=np.int64)


def reduce_mod(x, p: int) -> int:
    """Image of a rational number in F_p; fails if p divides the denominator."""
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {f} vanishes mod {p}")
    return f.numerator * pow(f.denominator, -1, p) % p


def mat_mod(rows, p: int) -> np.ndarray:
    """The matrix reduced into [0, p) as int64: integer entries, and a
    float array whose entries are all integers, with one numpy mod; any
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
    return np.mod(a, p).astype(np.int64)


def integer_rows(rows) -> list[list[int]]:
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


def modp_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p, in [0, p) as int64, of integer matrices: linalg._product,
    the product the F_p eliminations run, of their residues."""
    return _product(mat_mod(a, p), mat_mod(b, p), p)


def modp_ranks(stack, p: int) -> np.ndarray:
    """Rank mod p of each matrix of an (N, m, n) integer stack:
    linalg._stack_ranks, the elimination analysis.ranks_at runs, of its
    residues."""
    return _stack_ranks(mat_mod(stack, p), p)


def kernel_rows(stack, p: int) -> list[np.ndarray]:
    """The kernel basis of each matrix of an (N, m, n) integer stack, as
    rows: the nonzero rows of linalg.modp_kernel's square kernels."""
    return [k[k.any(axis=1)] for k in modp_kernel(stack, p)]


def randrange_points(rng, count: int, nvars: int, prime: int) -> np.ndarray:
    """One rng.randrange(prime) per coordinate, in row-major order: the
    oracle for analysis.random_points, which draws the same words in bulk."""
    return np.array([rng.randrange(prime) for _ in range(count * nvars)],
                    dtype=np.int64).reshape(count, nvars)


def modp_row_reduce(rows, p):
    """Row reduction mod p in Python lists, one row at a time: the oracle
    for _rref and for EchelonOracle.  Returns the RREF rows sorted by pivot column, the
    pivot columns, and the index of each row that raised the rank of the
    rows before it."""
    basis = {}  # pivot column -> its RREF row, 0 at every other pivot
    raised = []
    for i, row in enumerate(rows):
        v = [int(x) % p for x in row]
        for c, b in basis.items():
            if v[c]:
                v = [(x - v[c] * y) % p for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        v = [x * inv % p for x in v]
        for k, b in basis.items():
            if b[c]:
                basis[k] = [(x - b[c] * y) % p for x, y in zip(b, v)]
        basis[c] = v
        raised.append(i)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots, raised


class EchelonOracle:
    """A growing RREF over F_p with whole rows added, each batch reduced by
    the rows before it with one product and eliminated row by row by
    linalg._gauss_jordan, not by the recursive halving of _rref: the
    reference of the stacked kernels and ranks, and the way the tests grow
    a row space.  basis holds the RREF rows sorted by pivot column, so
    basis[:, pivots] is the identity."""

    def __init__(self, ncols: int, p: int) -> None:
        self.p = p
        self.basis = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)

    def add(self, rows) -> list[int]:
        """Add the integer rows; returns the indices of those that raised
        the rank, each independent of the rows before it."""
        p = self.p
        rows = _reduced(rows, p).reshape(-1, self.basis.shape[1])
        if self.pivots.size:  # 0 at every known pivot
            rows = _product(rows[:, self.pivots], self.basis, p, minus=rows)
        new, pivots, raised = _gauss_jordan(rows, p)
        if pivots.size:  # new[:, pivots] = I clears them from the basis
            basis = _product(self.basis[:, pivots], new, p, minus=self.basis)
            pivots = np.concatenate([self.pivots, pivots])
            order = np.argsort(pivots)
            self.basis, self.pivots = np.concatenate([basis, new])[order], pivots[order]
        return raised.tolist()

    def kernel(self) -> np.ndarray:
        """Right kernel basis: e_f - sum_k basis[k, f] e_pivots[k] for each
        free column f, in increasing order."""
        free = np.ones(self.basis.shape[1], dtype=bool)
        free[self.pivots] = False
        out = np.zeros((int(free.sum()), len(free)), dtype=np.int64)
        out[np.arange(len(out)), np.flatnonzero(free)] = 1
        out[:, self.pivots] = (-self.basis[:, free].T) % self.p
        return out


def torus_oracle(pencil):
    """The dense oracle of Pencil.torus: the kernel, by qq_rref, of the
    incidence matrix of y_r - z_c - w_v = 0 over the unknowns (w, y, z),
    one row per nonzero coefficient (v, r, c), as integer rows; and the
    (c, b) blocks of the cells, numbered in order of first appearance, two
    cells in one block when y_r - z_c is the same on every kernel row."""
    var, row, col, _ = pencil.coo
    s, c, b = pencil.nvars, pencil.target_dim, pencil.source_dim
    a = np.zeros((len(var), s + c + b), dtype=np.int64)
    k = np.arange(len(var))
    a[k, var], a[k, s + row], a[k, s + c + col] = -1, 1, -1
    ker = qq_kernel(a, s + c + b)
    y, z = ker[:, s : s + c], ker[:, s + c :]
    labels = {}
    cells = (y[:, :, None] - z[:, None, :]).reshape(len(ker), c * b).T.tolist()
    blocks = [labels.setdefault(tuple(x), len(labels)) for x in cells]
    return ker, np.array(blocks, dtype=np.int64).reshape(c, b)


def modp_rref_kernel(rref, pivots, ncols, p):
    """e_f - sum_k rref[k][f] e_pivots[k] for each free column f, in order."""
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        row = [0] * ncols
        row[f] = 1
        for k, c in enumerate(pivots):
            row[c] = -rref[k][f] % p
        out.append(row)
    return out


def scaled_rref(u, s):
    """The RREF rows u[k] / s[k] of qq_rref's integer-scaled form, in Fractions."""
    return [[Fraction(x, sk) for x in row] for row, sk in zip(u.tolist(), s.tolist())]


def integer_scaled(t):
    """(s t, s): t scaled to a primitive integer tensor by a rational s > 0."""
    den = lcm(1, *(x.denominator for x in t.values()))
    nums = {w: x.numerator * (den // x.denominator) for w, x in t.items()}
    g = gcd(*nums.values()) or 1
    return {w: x // g for w, x in nums.items()}, Fraction(den, g)


def _product_formula_fractions(lvec, rvec, kind):
    num, den = Fraction(1), Fraction(1)
    k = len(lvec)
    for i in range(k):
        for j in range(i + 1, k):
            num *= lvec[i] ** 2 - lvec[j] ** 2
            den *= rvec[i] ** 2 - rvec[j] ** 2
    if kind in ("B", "C"):
        for i in range(k):
            num *= lvec[i]
            den *= rvec[i]
    d = num / den
    if d.denominator != 1:
        raise ArithmeticError("Weyl dimension is not an integer; bad weight?")
    return int(d)


def weyl_dim_fractions(group, weight, doubled=False):
    """The Weyl dimension formula in Fractions on the weight itself, half
    spin weights as halves: the oracle of the doubled integer weyl_dim,
    with its refusals in the same order."""
    w = [Fraction(x, 2 if doubled else 1) for x in weight]
    fam = group.family
    if fam == "GL":
        n = group.natural_dim
        if len(w) > n:
            raise ValueError("weight longer than GL rank")
        w = w + [Fraction(0)] * (n - len(w))
        if any(x.denominator != 1 for x in w):
            raise ValueError("GL weights must be integral")
        if any(w[i] < w[i + 1] for i in range(n - 1)):
            raise ValueError("weight is not dominant")
        return gl_dim(tuple(int(x) for x in w), n)
    rank = group.rank
    if len(w) > rank:
        raise ValueError(f"weight longer than rank {rank} of {fam}({group.natural_dim})")
    w = w + [Fraction(0)] * (rank - len(w))
    if fam == "Sp":
        if any(w[i] < w[i + 1] for i in range(rank - 1)) or w[-1] < 0:
            raise ValueError("weight is not dominant for Sp")
        if any(x.denominator != 1 for x in w):
            raise ValueError("Sp weights must be integral")
        rho = [Fraction(rank - i) for i in range(rank)]
        return _product_formula_fractions([w[i] + rho[i] for i in range(rank)], rho, "C")
    if fam == "SO" and group.natural_dim % 2 == 1:
        if any(w[i] < w[i + 1] for i in range(rank - 1)) or w[-1] < 0:
            raise ValueError("weight is not dominant for SO(odd)")
        rho = [Fraction(2 * (rank - i) - 1, 2) for i in range(rank)]
        return _product_formula_fractions([w[i] + rho[i] for i in range(rank)], rho, "B")
    if any(w[i] < w[i + 1] for i in range(rank - 1)) or (rank >= 2 and w[-2] < abs(w[-1])):
        raise ValueError("weight is not dominant for the D series")
    rho = [Fraction(rank - 1 - i) for i in range(rank)]
    return _product_formula_fractions([w[i] + rho[i] for i in range(rank)], rho, "D")


def form_lie_basis(form):
    """Basis of the Lie algebra preserving the form: X with X^T G + G X = 0,
    namely X = G^{-1} S for S = E_ab + E_ba (Sp, a <= b) or E_ab - E_ba
    (SO, a < b)."""
    n = form.dim
    ginv = form.dual_tensor()
    sign = 1 if form.kind == "symplectic" else -1
    out = []
    for a in range(n):
        for b in range(a if sign == 1 else a + 1, n):
            x = [[0] * n for _ in range(n)]
            for i in range(n):
                x[i][b] += ginv.get((i, a), 0)
                x[i][a] += sign * ginv.get((i, b), 0)
            out.append(tuple(map(tuple, x)))
    return out


def derivation(X, t):
    """sum over slots of X applied to the letter in that slot, word by word."""
    images = letter_images(X)
    out = {}
    for w, c in t.items():
        for s, a in enumerate(w):
            for b, x in images.get(a, ()):
                nw = w[:s] + (b,) + w[s + 1:]
                out[nw] = out.get(nw, 0) + c * x
    return {w: c for w, c in out.items() if c}


def contract(t, s1, s2, form):
    """Slots s1 < s2 of a tensor contracted with the form, word by word."""
    out = {}
    for w, c in t.items():
        g = form.gram[w[s1]][w[s2]]
        if g:
            nw = w[:s1] + w[s1 + 1:s2] + w[s2 + 1:]
            out[nw] = out.get(nw, 0) + c * g
    return {w: c for w, c in out.items() if c}


def word_grade(w, letter_grades):
    """The sum of the letters' rows of letter_grades, as a tuple."""
    return tuple(sum(int(letter_grades[a][i]) for a in w)
                 for i in range(len(letter_grades[0])))


def span_basis(tensors, letter_grades):
    """The RREF basis of each grade's block of the tensors, blocks in the
    order of repr(grade), each basis tensor as {word: Fraction}: the word
    loop that GradedSpan.from_tensors replaces, with Gauss-Jordan in
    Fractions for each block's RREF."""
    by_grade = {}
    for t in tensors:
        if t:
            grades = {word_grade(w, letter_grades) for w in t}
            assert len(grades) == 1
            by_grade.setdefault(grades.pop(), []).append(t)
    out = []
    for g in sorted(by_grade, key=repr):
        words = sorted({w for t in by_grade[g] for w in t})
        rref, _ = fraction_rref([[t.get(w, 0) for w in words] for t in by_grade[g]])
        out += [{w: x for w, x in zip(words, row) if x} for row in rref]
    return out


def tensors_of(batch):
    """The batch's tensors, each as {word: coefficient}."""
    out = [{} for _ in range(batch.n)]
    words = map(tuple, batch.letters().tolist())
    for i, w, c in zip(batch.idx.tolist(), words, batch.coef.tolist()):
        out[i][w] = c
    return out


def basis_tensors(span):
    """The span's basis b_k = u_k / s_k, each as {word: Fraction}."""
    return [{w: Fraction(c, s) for w, c in u.items()}
            for u, s in zip(tensors_of(span.scaled_batch), span.scales)]


def pivot_words(span):
    """The pivot word of each basis tensor."""
    u = span.scaled_batch
    return [tuple(int(c) // u.radix ** (u.degree - 1 - i) % u.radix for i in range(u.degree))
            for c in span.pivots.tolist()]


def coordinate_dicts(span, batch):
    """span.coordinates(batch) as one {k: c_k} per tensor of the batch, or
    None for a tensor outside the span."""
    image, k, c, outside = span.coordinates(batch)
    out = [{} for _ in range(batch.n)]
    for i, kk, cc in zip(image.tolist(), k.tolist(), c.tolist()):
        out[i][kk] = cc
    return [None if off else d for d, off in zip(out, outside.tolist())]


def contains(lam, mu):
    """Whether the diagram of mu fits inside the diagram of lam."""
    lam, mu = normalize(lam), normalize(mu)
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


def form_value(form, a, b):
    """B(e_a, e_b), the form's Gram entry."""
    return form.gram[a][b]


def theta_fractions(X, lam, lam_p, mu, mu_p):
    """The matrix of Theta_X in Fractions, entry by entry: each side's
    coordinates divided by their basis vector's scale, and the products
    summed one (alpha, beta) and one target pair at a time.  The loop that
    theta_map's integer sums replace."""
    a, b = len(X), len(X[0])
    box_rm, box_add = _one_box(lam_p, lam, a), _one_box(mu, mu_p, b)
    sa, sap = schur_module(lam, a), schur_module(lam_p, a)
    sb, sbp = schur_module(mu, b), schur_module(mu_p, b)

    def coords(mod, images, target, per):
        # coords[j][i]: the coordinates of image i of basis vector j
        read = coordinate_dicts(target.span, images)
        assert None not in read
        return [[{k: Fraction(c, mod.span.scales[j]) for k, c in read[j * per + i].items()}
                 for i in range(per)] for j in range(mod.dim)]

    slot_rm = cell_slot(lam, box_rm.row - 1, box_rm.col - 1)
    slot_add = cell_slot(mu_p, box_add.row - 1, box_add.col - 1)
    coords_a = coords(sa, apply_symmetrizer(sa.span.scaled_batch.split_at(slot_rm), lam_p), sap, a)
    coords_b = coords(sb, apply_symmetrizer(
        sb.span.scaled_batch.with_letter_inserted(slot_add), mu_p), sbp, b)
    out = [[Fraction(0)] * (sa.dim * sb.dim) for _ in range(sap.dim * sbp.dim)]
    for ja in range(sa.dim):
        for alpha in range(a):
            for jb in range(sb.dim):
                for beta in range(b):
                    x = Fraction(X[alpha][beta])
                    if not x:
                        continue
                    for ka, va in coords_a[ja][alpha].items():
                        for kb, vb in coords_b[jb][beta].items():
                            out[ka * sbp.dim + kb][ja * sb.dim + jb] += x * va * vb
    return out


def pencil_to_document(p, builder_params=None):
    """The pencil-file document as a dict: the oracle for dumps_pencil,
    whose text is json.dumps(document, indent=2, sort_keys=True) + "\\n"."""
    entries = []
    for var, r, c, x in p.coeffs:
        g = gcd(abs(x), p.denom)
        entries.append({"var": var, "row": r, "col": c,
                        "num": str(x // g), "den": str(p.denom // g)})
    doc = {
        "nvars": p.nvars,
        "source_dim": p.source_dim,
        "target_dim": p.target_dim,
        "var_labels": list(p.var_labels),
        "entries": entries,
    }
    if builder_params is not None:
        doc["builder"] = builder_params
    return doc


def _json_int(x):
    if type(x) is int or isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise FixtureParseError(f"expected an integer, got {x!r}")


def document_to_pencil_by_entry(doc):
    """The pencil of a document, read and checked one entry at a time: the
    oracle for catalog.document_to_pencil."""
    try:
        nvars = _json_int(doc["nvars"])
        source_dim = _json_int(doc["source_dim"])
        target_dim = _json_int(doc["target_dim"])
        labels = doc["var_labels"]
        raw = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"malformed pencil document: {exc}") from None
    if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
        raise FixtureParseError("var_labels must be a list of strings")
    labels = tuple(labels)
    if len(labels) != nvars or nvars < 1 or source_dim < 1 or target_dim < 1:
        raise FixtureParseError("inconsistent pencil document header")
    if max(nvars * target_dim * source_dim, nvars * nvars) > MAX_PENCIL_CELLS:
        raise FixtureParseError("too many coefficient cells")
    entries = []
    denom = 1
    try:
        for e in raw:
            var, r, c = _json_int(e["var"]), _json_int(e["row"]), _json_int(e["col"])
            num, den = _json_int(e["num"]), _json_int(e["den"])
            if den <= 0 or gcd(abs(num), den) != 1:
                raise FixtureParseError("entries must be reduced with den > 0")
            if not (0 <= var < nvars and 0 <= r < target_dim and 0 <= c < source_dim):
                raise FixtureParseError("entry index out of range")
            entries.append((var, r, c, num, den))
            denom = lcm(denom, den)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FixtureParseError):
            raise
        raise FixtureParseError(f"malformed pencil entry: {exc}") from None
    keys = [e[:3] for e in entries]
    if keys != sorted(keys):
        raise FixtureParseError("entries must be sorted by (var, row, col)")
    if len(set(keys)) != len(keys):
        raise FixtureParseError("duplicate entry in pencil document")
    return Pencil(nvars=nvars, source_dim=source_dim, target_dim=target_dim,
                  coeffs=tuple((var, r, c, num * (denom // den))
                               for var, r, c, num, den in entries if num),
                  denom=denom, var_labels=labels)


def sampled_verdict_one_list(pencil, prime, trials, seed):
    """The sampled verdict with every trial kept as a tuple and all points,
    trials then structured points, ranked in one ranks_at call: the oracle
    of the sampled mode of constant_rank_verdict."""
    rng = random.Random(seed)
    points = [
        (tuple(rng.randrange(prime) for _ in range(pencil.nvars)), "generic")
        for _ in range(trials)
    ]
    points += structured_points(pencil, prime, rng)
    points = [(x, cls) for x, cls in points if any(x)]
    ranks = {}
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
    return RankReport(max(values), strata, verdict,
                      {"kind": "sampled", "prime": prime, "trials": trials, "seed": seed})


def exhaustive_verdict_all_points(pencil, prime):
    """The exhaustive verdict with every point of P^{s-1}(F_p) ranked, as
    tuples with first nonzero coordinate 1, lead by lead and each tail in
    lexicographic order, in one ranks_at call: the oracle of the
    exhaustive mode of constant_rank_verdict, which ranks one point per
    torus orbit."""
    s = pencil.nvars
    points = [(0,) * lead + (1,) + tail for lead in range(s)
              for tail in itertools.product(range(prime), repeat=s - lead - 1)]
    ranks = {}
    for r, x in zip(ranks_at(pencil, points, prime), points):
        ranks.setdefault(r, x)
    strata = [(r, pt, "exhaustive") for r, pt in sorted(ranks.items())]
    return RankReport(max(ranks), strata, "constant" if len(ranks) == 1 else "non-constant",
                      {"kind": "exhaustive", "prime": prime, "points": len(points)})
