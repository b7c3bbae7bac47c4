"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload certify --seed 0 --trace 0 \
        --spawned-at <time.monotonic() of the parent just before the spawn>

run.py starts it with PYTHONPATH=src and BLAS/OpenMP threads set to 1.
Set-up runs from the spawn to the start of the measured phase: interpreter
start, `import crpencils`, the workload's preparation and emptying every
crpencils lru_cache, so the measured builds are cold.  With --setup-only
the pass stops there.  With --trace 1 the layer wrappers of spans.py record
the measured phase and the spans are written to --spans.

Times are speed-normalized (speed.py) from the first line of `main` on;
the raw wall times are reported next to them as raw_*.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.startswith("crpencils"):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_job(job, tracer, clock) -> dict:
    from jobs import Mismatch

    start, raw_start = clock.now(), perf_counter()
    try:
        if tracer is None:
            job.run()
        else:
            with tracer.job_span(job.id):
                job.run()
        error = ""
    except Mismatch as exc:
        error = f"wrong result: {exc}"
    except Exception:  # a crash is a failed job, reported with its traceback
        error = "error: " + traceback.format_exc(limit=-3).strip()
    return {"id": job.id, "seconds": clock.now() - start,
            "raw_seconds": perf_counter() - raw_start, "error": error,
            "points": job.points}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    clock = SpeedProbe()
    clock.start()
    spawn_s = monotonic() - args.spawned_at  # interpreter start, not normalized

    import numpy
    import crpencils
    from crpencils import linalg

    src = (ROOT / "src" / "crpencils").resolve()
    if src not in {Path(p).resolve() for p in crpencils.__path__}:
        raise SystemExit(f"crpencils was imported from {list(crpencils.__path__)}, not {src}")
    import jobs
    import spans

    plan = jobs.prepare(args.workload, args.seed)
    clear_caches()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    gc.collect()
    out = {"setup_s": spawn_s + clock.now(),
           "raw_setup_s": monotonic() - args.spawned_at}
    if args.setup_only:
        clock.stop()
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.enabled = True
    start, raw_start = clock.now(), perf_counter()
    results = [run_job(job, tracer, clock) for job in plan.jobs]
    wall_s, raw_wall_s = clock.now() - start, perf_counter() - raw_start
    if tracer is not None:
        tracer.enabled = False
    # the exhaustive rate of workloads without exhaustive jobs, measured
    # outside wall_s and after the builders' caches are emptied again
    clear_caches()
    gc.collect()
    probe = [run_job(job, None, clock) for job in plan.probe]
    clock.stop()
    exhaustive = [r for r in results + probe if r["points"]]

    out.update(
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        exhaustive_pts_per_s=(sum(r["points"] for r in exhaustive)
                              / sum(r["seconds"] for r in exhaustive)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=results + probe,
        env={
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "prime": getattr(linalg, "DEFAULT_PRIME", None),
        },
    )
    if tracer is not None:
        # span times are raw; rescale them by the pass's mean speed
        out["layers"] = spans.layer_metrics(tracer.spans, wall_s / raw_wall_s)
        out["unwrapped"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
