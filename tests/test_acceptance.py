"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Each test drives the same check routines the example catalog runs, with the
default deterministic configuration, and prints a single summary line that
bypasses pytest's capture so the verdicts are always visible.  Every catalog
entry's details are also checked against a recorded digest, once each.
"""

import hashlib
import time
from math import comb

import pytest

from crpencils.catalog import CATALOG, CatalogRunConfig, run_entry
from crpencils.analysis import rnd
from crpencils.partitions import family_sizes, gl_dim, hook_family_rank
from crpencils.pencils import build_gl_pencil, build_spin_pencil

CFG = CatalogRunConfig()

# sha256 of repr(details) of every catalog entry at the default config, the
# gate of every refactor: a changed verdict, rank, stratum or detail value
# changes its digest.  Recorded before the exact eliminations over Q were
# folded into the one lifted RREF.
DETAIL_DIGESTS = {
    "adjoint-wedge3-c7": "803d27a74d6112d7295ed5adc0f3616768c9de2d7095c9e6c6ce6db1df268396",
    "adjoint-wedge3-c8": "05dc9c01d2901faa4c4f213fc8e782c7859278baeeec74d3b586e5db3861ee1e",
    "dimension-bookkeeping": "0da73f6ea238aa9d7386afc39f20466e1ab7c318c4b7829b1e2cdc61abb68b3d",
    "eagon-northcott-rank-dependence": "947c6bebce5bc3a2ac2bae9b674c0f5bbcafb0eef9e9165c8aa0eba3127343aa",
    "eagon-northcott-rank-formula": "61cf192c11539c6029c2e50e541597a23c5f5ad9188b3902b3988394459b6bac",
    "gl-hook-family": "85613b85f3e7515170a11cf9bf04be1946dfaa6fb68ac179cf4c4c1c7d07821f",
    "gl-one-box-predictions": "320672859fe43a66fe69c9bf70703bc3aee04bd3d55d184e50284ffbcd7c89f7",
    "gl-sym2-family": "9b9feba07dc1d5a514686401508e247dac12c12d21c382f03f24ec547820620d",
    "gl-sym2-fixture": "558409662bc1878d5847472f2911ece3a3fb3488078fb0516dd08899d939e8ad",
    "gl-sym2-rank-neutral": "c3c3da54e761e985668b63cc3a2d8b4f9beb26c967a01ad931e062e5cff5c9f9",
    "gl-sym22-family": "3891b529616ecb8fbd2118681aeb074cf80c234054be1d6c19be90b7aea903a3",
    "hyperplane-bound": "50dee0ac349e21b8125797a036d1032ab990cd045079c6f7b925416352a091f1",
    "koszul-flattening": "a76c3308118441a1635fc02346228ef1c35308cc392707880b896a3ddcb28192",
    "koszul-rank-critical": "48725e3f0eb3239e98c7f67cbe5b0f6b7e2af10196d0ce495df84f751fb52cf5",
    "so-branching-kernels": "b976cb6c7a2f9db6fd360a3d5dac3b65c9dacd4acdc61f7ad5f78e5899ca80ab",
    "so-hook-corank": "920fd0a04aa106d36f878ad85d61c72347b579eff0b027da0c7ff1620a0686eb",
    "so-sym2-family": "3bf85d6a73cb94c21472776ae09f449a6b87ed7701079b3f96fd739bb2a91dfb",
    "sp-branching": "837e957f1f3a0f07c17c1a5fa692035f0a94f145b50f3f40fb1cdeded7686faf",
    "sp6-koszul-expansion": "ea234c5d0e7736ed093e888f3ad7de2f923a771f322ceac68738c108a1e25dce",
    "sp6-wedge2-fixture": "ccbc99fca9999388a67e70eaa9f0617b8d00367658a4deeb8c1800a6dc3efa78",
    "sp6-wedge2-pencil": "5aafe52fc605dd752f5f85da4f94b74b046bcedcd2de46f990ad2edd5e045c25",
    "spin10-fixture": "5bc0c1f555cdddd80bfe5de080839effe71d79d153cca1aa7364269b52d21fc3",
    "spin10-pencil": "fafbd3a88ea8c8224ae3f9197e135ec33135a2120ddb31307adecb200efe1098",
    "spin10-rank-critical": "7117b53a2bc4c8083c29f89e3cf4f7867941f13807c15ec8940fac1f7063d6b5",
}

# the entries that the numbered criteria below run; each is run once
ACCEPTANCE_ENTRIES = {
    "adjoint-wedge3-c7", "adjoint-wedge3-c8", "dimension-bookkeeping",
    "eagon-northcott-rank-dependence", "eagon-northcott-rank-formula",
    "gl-hook-family", "gl-sym2-family", "gl-sym22-family", "hyperplane-bound",
    "koszul-flattening", "koszul-rank-critical", "so-hook-corank",
    "so-sym2-family", "sp6-koszul-expansion", "sp6-wedge2-fixture",
    "sp6-wedge2-pencil", "spin10-pencil",
}


def _run(entry_id: str) -> tuple[dict, list]:
    """The details and failures of one catalog entry, with a failure added
    when its details digest differs from the recorded one."""
    entry = next(e for e in CATALOG if e.entry_id == entry_id)
    result = run_entry(entry, CFG)
    details, failures = result.details, result.failures
    digest = hashlib.sha256(repr(details).encode()).hexdigest()
    if digest != DETAIL_DIGESTS[entry_id]:
        failures = failures + [f"{entry_id}: details digest {digest} changed"]
    return details, failures


def _report(capfd, num: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {title}"
    with capfd.disabled():
        print(line, flush=True)
    assert not failures, "\n".join(failures)


def test_criterion_01_gl_sym2_family(capfd):
    t0 = time.monotonic()
    failures = []
    for n in range(2, 6):
        a, b, r = family_sizes("GL_2_21", n=n)
        if (a, b, r) != ((n + 2) * (n + 1) // 2, n * (n + 1) * (n + 2) // 3,
                         (n * n + 3 * n) // 2):
            failures.append(f"n={n}: closed-form sizes disagree")
    _, more = _run("gl-sym2-family")
    failures += more
    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(capfd, 1, "symmetric-square family: sizes, transitivity, exhaustive F3",
            failures)


def test_criterion_02_gl_sym22_family(capfd):
    _, failures = _run("gl-sym22-family")
    _report(capfd, 2, "20x20 family: constant rank 14, decomposition (6,14,6)",
            failures)


def test_criterion_03_gl_hook_family(capfd):
    _, failures = _run("gl-hook-family")
    if hook_family_rank(3, 1) != 11:
        failures.append("closed-form rank at (a,b,n)=(1,1,3) is not 11")
    _report(capfd, 3, "hook family: 15x20 rank 11 and closed-form rank for n<=5, b<=2",
            failures)


def test_criterion_04_rank_criticality(capfd):
    _, failures = _run("koszul-rank-critical")
    spin_rep = rnd(build_spin_pencil(5), CFG.prime, seed=CFG.seed)
    if spin_rep.verdict != "rank-critical-certified":
        failures.append(f"spin pencil verdict {spin_rep.verdict!r}")
    if "seed" not in spin_rep.method:
        failures.append("certificate does not record the seed")
    gl_rep = rnd(build_gl_pencil((2,), (2, 1), 3), CFG.prime, seed=CFG.seed)
    if (gl_rep.verdict, gl_rep.space.dim) != ("strictly-larger", 18):
        failures.append(
            f"symmetric-square neutral space: {gl_rep.verdict}, "
            f"dim {gl_rep.space.dim} (want strictly-larger, 18)")
    if gl_dim((3, 1), 3) != 15:
        failures.append("dimension oracle: gl_dim((3,1),3) != 15")
    _report(capfd, 4, "rank criticality: Koszul and spin certified; 3+15=18 neutral "
               "space for the symmetric-square pencil", failures)


def test_criterion_05_induced_operator_rank(capfd):
    t0 = time.monotonic()
    _, failures = _run("eagon-northcott-rank-formula")
    _, more = _run("eagon-northcott-rank-dependence")
    failures += more
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(capfd, 5, "induced operator: closed-form rank matches brute force and "
               "depends only on rank(X)", failures)


def test_criterion_06_sp6_wedge2(capfd):
    _, failures = _run("sp6-wedge2-pencil")
    _, more = _run("sp6-wedge2-fixture")
    failures += more
    _, more = _run("sp6-koszul-expansion")
    failures += more
    _report(capfd, 6, "symplectic 14x14: constant rank 9, fixture verified, "
               "expanded pencil rank 10 = 9 + 1", failures)


def test_criterion_07_so_sym2(capfd):
    _, failures = _run("so-sym2-family")
    _report(capfd, 7, "orthogonal symmetric-square family: constant rank 4 at m=3, "
               "exact kernel vector, closed-form sizes", failures)


def test_criterion_08_so_hook_corank(capfd):
    _, failures = _run("so-hook-corank")
    _report(capfd, 8, "orthogonal hook family: corank C(m-1,3)+C(m-1,2) on both "
               "orbits at m=5,6", failures)


def test_criterion_09_spin(capfd):
    _, failures = _run("spin10-pencil")
    _report(capfd, 9, "half-spin pencil: rank 9 generic / 5 at e_0, exact kernel "
               "vectors, vanishing on pure spinors", failures)


def test_criterion_10_adjoint(capfd):
    _, failures = _run("adjoint-wedge3-c7")
    details8, more = _run("adjoint-wedge3-c8")
    failures += more
    _, more = _run("hyperplane-bound")
    failures += more
    with capfd.disabled():
        print(f"    a=8 measured generic rank: "
              f"{details8.get('measured generic rank')}", flush=True)
    _report(capfd, 10, "adjoint wedge-cube: a=7 rank 34, a=8 rank <= 55, hyperplane "
                "criterion (True, 40)", failures)


def test_criterion_11_koszul_flattening(capfd):
    _, failures = _run("koszul-flattening")
    _report(capfd, 11, "Koszul flattening rank 18, border-rank bound 9", failures)


def test_criterion_12_dimension_bookkeeping(capfd):
    _, failures = _run("dimension-bookkeeping")
    if comb(14, 3) != 364:
        failures.append("binomial cross-check failed")
    _report(capfd, 12, "dimension bookkeeping: 14, 19404, 20790, 66, 352, 364, 4992",
            failures)


def test_detail_digests_cover_the_catalog():
    assert sorted(DETAIL_DIGESTS) == sorted(e.entry_id for e in CATALOG)
    assert ACCEPTANCE_ENTRIES < set(DETAIL_DIGESTS)


@pytest.mark.parametrize("entry_id", sorted(set(DETAIL_DIGESTS) - ACCEPTANCE_ENTRIES))
def test_catalog_details_digest(entry_id):
    _, failures = _run(entry_id)
    assert not failures, "\n".join(failures)
