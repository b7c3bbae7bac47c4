"""The summary that scripts/bench_pairs.py writes into a BENCH_<n>.json file."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rounded(x):
    """x with every float to 12 significant digits: quartiles interpolated
    by another formula may differ in the last bit."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    return x


def _by_metric(summary: dict) -> dict:
    """The summary as {workload: {metric: row}}, whatever the order."""
    return {w: {row["metric"]: _rounded(row) for row in rows} for w, rows in summary.items()}


def _run(pair, side, wall, rate):
    metrics = {"wall_s": {"value": wall}, "exhaustive_pts_per_s": {"value": rate}}
    return {"side": side, "workload": "w", "pair": pair, "seed": pair,
            "result": {"metrics": metrics}}


def test_wins_follow_each_metric_direction_and_ties_count_for_neither():
    bench = _load()
    runs = [_run(0, "parent", 2.0, 10.0), _run(0, "change", 1.0, 10.0),
            _run(1, "change", 3.0, 30.0), _run(1, "parent", 2.0, 20.0),
            _run(2, "parent", 2.0, 20.0), _run(2, "change", 2.0, 30.0),
            _run(3, "parent", 2.0, 20.0)]  # an unpaired run is left out
    rows = {r["metric"]: r for r in bench.summarize(runs, bench.end_to_end())["w"]}
    assert set(rows) == {"wall_s", "exhaustive_pts_per_s"}
    assert (rows["wall_s"]["pairs"], rows["wall_s"]["change_wins"]) == (3, 1)
    assert rows["exhaustive_pts_per_s"]["change_wins"] == 2
    assert rows["wall_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert rows["wall_s"]["change_over_parent"] == 1.0


def test_a_single_pair_is_summarized():
    bench = _load()
    runs = [_run(0, "parent", 2.0, 10.0), _run(0, "change", 1.0, 10.0)]
    row = bench.summarize(runs, bench.end_to_end())["w"][0]
    assert (row["pairs"], row["change"]) == (1, {"q1": 1.0, "median": 1.0, "q3": 1.0})


def test_raw_setup_gets_its_own_row_after_setup():
    bench = _load()
    runs = [_run(0, "parent", 2.0, 10.0), _run(0, "change", 1.0, 10.0),
            _run(1, "parent", 2.0, 10.0), _run(1, "change", 1.0, 10.0)]
    for r, setup, raw in zip(runs, (0.15, 0.16, 0.15, 0.14), (0.30, 0.25, 0.20, 0.22)):
        r["result"]["metrics"]["setup_s"] = {"value": setup}
        r["raw_setup_s"] = raw
    rows = bench.summarize(runs, bench.end_to_end())["w"]
    names = [row["metric"] for row in rows]
    assert names[names.index("setup_s") + 1] == "raw_setup_s"
    raw = rows[names.index("raw_setup_s")]
    assert (raw["pairs"], raw["change_wins"]) == (2, 1)
    assert raw["parent"]["median"] == 0.25 and raw["change"]["median"] == 0.235


def test_raw_setup_is_the_median_of_the_trace_passes(tmp_path):
    bench = _load()
    trace = tmp_path / "rnd-trace0.json"
    assert bench.raw_setup_median(trace) is None
    passes = [{"setup_s": 0.1, "raw_setup_s": x} for x in (0.3, 0.1, 0.2)]
    trace.write_text(json.dumps({"env": {}, "passes": passes}))
    assert bench.raw_setup_median(trace) == 0.2


def test_the_stored_summary_is_regenerated_from_its_runs():
    bench = _load()
    doc = json.loads((ROOT / "BENCH_20.json").read_text())
    assert _by_metric(bench.summarize(doc["runs"], bench.end_to_end())) \
        == _by_metric(doc["summary"])
