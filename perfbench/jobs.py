"""The three workloads as lists of checked jobs.

Every job calls only public crpencils functions, looked up on their module
at call time (so the spans of `spans.py` see them), and compares the result
with a paper, catalog or closed-form value.  A wrong value raises Mismatch;
the runner counts it, and any other exception, as a failed job.

`prepare(workload, seed)` does the workload's own preparation (pencils and
JSON texts that the jobs start from) and returns the job list plus the jobs
run after the measured phase.  The seed reaches the library only as the
`seed=` argument of the rank and RND calls.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from crpencils import analysis, catalog

WORKLOADS = ("construct", "certify", "rnd")


class Mismatch(Exception):
    """A job's result differs from its expected value."""


@dataclass
class Job:
    id: str
    run: Callable[[], None]
    points: int = 0  # projective points of an exhaustive verdict


@dataclass
class Plan:
    jobs: list[Job]
    # run after the measured phase: the exhaustive rate on workloads that
    # have no exhaustive job of their own
    probe: list[Job] = field(default_factory=list)


def exhaustive_probe() -> list[Job]:
    """The verbatim fixture over F_5 three times: one run lasts under a
    second, too short to time steadily on its own."""
    return [fixture_job(f"probe-{i}-exhaustive-fixture-sp6_wedge2-F5")
            for i in range(3)]


def expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# construct: cold builds followed by the `crpencils build` JSON round trip

# (builder record, (nvars, target dim, source dim), sha256 of the JSON text).
# The shapes are Weyl / hook-content dimensions, e.g. SO(5): dim [3,2,1] = 105
# and dim [3,1,1] = 81; GL(6): dim S_(2,1,1,1) = 84 and dim S_(2,1,1) = 105;
# adjoint a=8: C(8,3) = 56 variables, Lambda^3 -> sl_8 is 56 x 63.  The
# digests are the behaviour gate: the JSON text must stay byte-identical.
CONSTRUCT = [
    ({"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5}, (5, 105, 81),
     "59949cc963ef52dcdcd3ea433aa46c51e1e89bde4d177843d40556a78b085426"),
    ({"kind": "gl", "mu": [2, 1, 1], "nu": [2, 1, 1, 1], "v": 6}, (6, 84, 105),
     "113b9f721d04b0606dae60a6fd2e0beec394eeafdf48650ffa443e924e1292f9"),
    ({"kind": "adjoint", "a": 8}, (56, 56, 63),
     "994b14f9cdfd9ba4f46a8a3d79b40ff25aafebd8d735c0d873d4234aa5257d56"),
    ({"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 5}, (5, 75, 50),
     "67c27a944cf2bad649d2bc3fb5dabc410e11d88fbc8623b786a9cb813e5e98a8"),
    ({"kind": "sp", "mu": [2], "nu": [2, 1], "N": 6}, (6, 64, 21),
     "fdef95ef2cb256cd07bd39b192fa054a108226493a18d2e6cddff93e40226aad"),
    ({"kind": "spin", "n": 5}, (16, 16, 10),
     "a884d974d48aa2178b7780c425ecc034af08e913d593282fe5f5d9c7371d2cb8"),
    ({"kind": "koszul", "k": 2, "v": 6}, (6, 20, 15),
     "7fa02a0e19ff4817f723aed392b64e4fe3a06372078258f708445a24b4869c83"),
    ({"kind": "so", "mu": [2], "nu": [2, 1], "m": 5}, (5, 35, 14),
     "b4ba0d4dc1182806fae2c2bf311232295a5a21edf1694b0a1eb79db2b5642a00"),
]


def job_name(params: dict) -> str:
    """so-311-321-5 for {"kind": "so", "mu": [3, 1, 1], "nu": [3, 2, 1], "m": 5}."""
    return "-".join(
        "".join(map(str, v)) if isinstance(v, list) else str(v)
        for v in params.values()
    )


def construct_job(params: dict, shape: tuple, digest: str) -> Job:
    def run() -> None:
        pencil = catalog.build_from_params(params)
        expect("shape", (pencil.nvars, pencil.target_dim, pencil.source_dim), shape)
        text = catalog.dumps_pencil(pencil, params)
        expect("sha256 of build JSON",
               hashlib.sha256(text.encode("utf-8")).hexdigest(), digest)
        loaded, builder = catalog.loads_pencil(text)
        expect("round trip coefficients", (loaded.coeffs, loaded.denom),
               (pencil.coeffs, pencil.denom))
        expect("round trip builder record", builder, params)

    return Job("build-" + job_name(params), run)


# ---------------------------------------------------------------------------
# certify: rank verdicts through analysis.constant_rank_verdict

SP6 = {"kind": "sp", "mu": [1, 1], "nu": [1, 1, 1], "N": 6}
ADJOINT8 = {"kind": "adjoint", "a": 8}
SO5_SYM2 = {"kind": "so", "mu": [2], "nu": [2, 1], "m": 5}
SPIN10 = {"kind": "spin", "n": 5}

# (builder record, constant rank).  GL v=5 has b*c*s <= 20000 and takes the
# exact equivariance branch; GL v=7 (b*c*s = 21,952) stays on the modular one.
TRANSITIVITY = [
    ({"kind": "gl", "mu": [2, 2], "nu": [2, 2, 1], "v": 5}, 40),
    ({"kind": "gl", "mu": [2], "nu": [2, 1], "v": 7}, 27),
    (SP6, 9),
]


def projective_points(nvars: int, prime: int) -> int:
    return (prime ** nvars - 1) // (prime - 1)


def ranks_of(report) -> list[int]:
    return sorted({r for r, _pt, _cls in report.strata})


def transitivity_job(params: dict, rank: int, seed: int) -> Job:
    # the pencil is rebuilt inside the job, as `crpencils verify --mode
    # transitivity` does, so build-versus-check shifts stay in one job
    def run() -> None:
        pencil = catalog.build_from_params(params)
        rep = analysis.constant_rank_verdict(pencil, "transitivity", seed=seed)
        expect("verdict and rank", (rep.verdict, rep.generic_rank), ("constant", rank))

    return Job("transitivity-" + job_name(params), run)


def exhaustive_job(job_id: str, load: Callable, prime: int, nvars: int,
                   verdict: str, ranks: list[int]) -> Job:
    def run() -> None:
        pencil = load()
        rep = analysis.constant_rank_verdict(
            pencil, "exhaustive", prime=prime, budget=10 ** 6
        )
        expect("verdict", rep.verdict, verdict)
        expect("ranks over F_%d" % prime, ranks_of(rep), ranks)

    return Job(job_id, run, points=projective_points(nvars, prime))


def fixture_job(job_id: str = "exhaustive-fixture-sp6_wedge2-F5") -> Job:
    # the verbatim sp6 transcription is rank 9 only on the coordinate orbit
    return exhaustive_job(
        job_id,
        lambda: catalog.fixture_parse("sp6_wedge2"), 5, 6,
        "non-constant", [9, 10, 11],
    )


def sampled_job(job_id: str, load: Callable, seed: int, rank: int,
                structured: str = "") -> Job:
    def run() -> None:
        rep = analysis.constant_rank_verdict(load(), "sampled", seed=seed)
        expect("verdict and rank", (rep.verdict, rep.generic_rank), ("bounded", rank))
        if structured:
            classes = {cls for _r, _pt, cls in rep.strata}
            expect(f"{structured} points sampled", structured in classes, True)

    return Job(job_id, run)


def certify_plan(seed: int) -> Plan:
    sp6_text = catalog.dumps_pencil(catalog.build_from_params(SP6), SP6)
    adjoint_text = catalog.dumps_pencil(catalog.build_from_params(ADJOINT8), ADJOINT8)
    # built, not parsed: a pencil read from JSON has builder "file" and gets
    # only coordinate points from structured_points (a known defect)
    so5 = catalog.build_from_params(SO5_SYM2)
    spin10 = catalog.build_from_params(SPIN10)
    jobs = [transitivity_job(params, rank, seed) for params, rank in TRANSITIVITY]
    jobs += [
        exhaustive_job("exhaustive-sp-wedge2-N6-F7",
                       lambda: catalog.loads_pencil(sp6_text)[0], 7, 6,
                       "constant", [9]),
        fixture_job(),
        sampled_job("sampled-adjoint-8",
                    lambda: catalog.loads_pencil(adjoint_text)[0], seed, 55),
        sampled_job("sampled-" + job_name(SO5_SYM2), lambda: so5, seed, 13,
                    "isotropic"),
        sampled_job("sampled-" + job_name(SPIN10), lambda: spin10, seed, 9,
                    "pure-spinor"),
    ]
    return Plan(jobs)


# ---------------------------------------------------------------------------
# rnd: rank-neutral directions of pencils built during preparation

# (builder record, verdict, dimension of RND(L)).  The strictly-larger
# dimensions are the values the seed commit computes; the certified ones
# equal nvars.
RND = [
    ({"kind": "koszul", "k": 2, "v": 7}, "rank-critical-certified", 7),
    ({"kind": "gl", "mu": [2, 1], "nu": [2, 1, 1], "v": 4}, "strictly-larger", 40),
    ({"kind": "koszul", "k": 2, "v": 6}, "rank-critical-certified", 6),
    ({"kind": "so", "mu": [2], "nu": [2, 1], "m": 4}, "strictly-larger", 20),
    ({"kind": "spin", "n": 5}, "rank-critical-certified", 16),
    ({"kind": "gl", "mu": [2], "nu": [2, 1], "v": 3}, "strictly-larger", 18),
]


def rnd_job(params: dict, pencil, seed: int, verdict: str, dim: int) -> Job:
    def run() -> None:
        rep = analysis.rnd(pencil, seed=seed)
        expect("verdict and dimension", (rep.verdict, rep.space.dim), (verdict, dim))

    return Job("rnd-" + job_name(params), run)


def rnd_plan(seed: int) -> Plan:
    jobs = [
        rnd_job(params, catalog.build_from_params(params), seed, verdict, dim)
        for params, verdict, dim in RND
    ]
    return Plan(jobs, probe=exhaustive_probe())


def prepare(workload: str, seed: int) -> Plan:
    if workload == "construct":
        return Plan([construct_job(*row) for row in CONSTRUCT], probe=exhaustive_probe())
    if workload == "certify":
        return certify_plan(seed)
    if workload == "rnd":
        return rnd_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")
