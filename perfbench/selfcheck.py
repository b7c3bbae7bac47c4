"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload's job list once, checks on, and asserts that no job
   fails (failed_ratio == 0).
2. Feeds one deliberately wrong expected value and one impossible job, and
   asserts that each is reported as a failed job, not as a pass or a crash.
3. Traces one job and asserts that the spans cover it: the self times of
   all its spans add up to the job's duration.
4. Asserts that BENCHMARK.json names exactly the metrics the code reports.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from worker import clear_caches, run_job  # noqa: E402

RAW_CLOCK = SpeedProbe()  # never started: its clock reads raw seconds


def check_job_lists(seed: int) -> None:
    for workload in jobs.WORKLOADS:
        plan = jobs.prepare(workload, seed)
        clear_caches()
        results = [run_job(job, None, RAW_CLOCK) for job in plan.jobs + plan.probe]
        failed = [r for r in results if r["error"]]
        for r in failed:
            print(f"FAILED {workload} {r['id']}: {r['error']}")
        assert not failed, f"{workload}: failed_ratio {len(failed)}/{len(results)}"
        print(f"ok {workload}: {len(results)} jobs, failed_ratio 0")


def check_failures_are_counted() -> None:
    params, shape, _digest = jobs.CONSTRUCT[6]  # Koszul (2,6), a fast build
    wrong = run_job(jobs.construct_job(params, shape, "0" * 64), None, RAW_CLOCK)
    assert wrong["error"].startswith("wrong result: sha256"), wrong
    crash = run_job(jobs.construct_job({"kind": "nonesuch"}, shape, "0" * 64), None, RAW_CLOCK)
    assert crash["error"].startswith("error: ") and "ValueError" in crash["error"], crash
    print("ok a wrong expected value and a crash are both failed jobs")


def check_spans_cover_a_job() -> None:
    clear_caches()
    tracer = spans.Tracer()
    tracer.install()
    assert not tracer.missing, tracer.missing
    tracer.enabled = True
    params, rank = jobs.TRANSITIVITY[2]  # Sp(6) wedge square
    result = run_job(jobs.transitivity_job(params, rank, 0), tracer, RAW_CLOCK)
    tracer.enabled = False
    assert not result["error"], result
    job = tracer.spans[0]
    assert job[0] == "job" and all(s[4] == job[4] for s in tracer.spans)
    covered = sum(s[6] for s in tracer.spans)
    assert math.isclose(covered, job[2] - job[1], rel_tol=1e-6), (covered, job)
    layers = spans.layer_metrics(tracer.spans)
    for name in ("modules.realize_calls", "modules.lie_action_calls",
                 "linalg.qq_rref_cells", "linalg.modp_rref_cells",
                 "pencils.check_equivariance_calls"):
        assert layers[name] > 0, name
    print(f"ok {len(tracer.spans)} spans cover the traced job")


def check_benchmark_json() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer_names = list(spans.layer_metrics([])) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m
    print("ok BENCHMARK.json matches the reported metrics")


def main() -> int:
    check_benchmark_json()
    check_failures_are_counted()
    check_job_lists(seed=0)
    check_spans_cover_a_job()
    return 0


if __name__ == "__main__":
    sys.exit(main())
