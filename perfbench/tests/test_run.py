"""Metric aggregation and the BENCHMARK.json contract of run.py."""

import json
import os

import pytest

import run
from workloads import WORKLOADS


def _record(mode, traced=False, **fields):
    return {"mode": mode, "traced": traced, "problems": [], **fields}


def test_end_to_end_metrics_aggregate_untraced_passing_runs():
    def batch(trace, value, **fields):
        return _record(
            "analyze", trace_path=trace, setup_s=value / 2, analyze_s=value,
            cpu_s=value + 1, peak_rss_mb=value * 10, **fields
        )

    records = [
        batch("a", 3.0),
        batch("a", 5.0),
        batch("a", 4.0),
        batch("b", 6.0),
        # a traced run and a failed run never enter the end-to-end metrics
        batch("b", 99.0, traced=True),
        {**batch("b", 99.0), "problems": ["F1 too low"]},
    ]
    metrics = run.end_to_end_metrics(records)
    assert metrics == {
        "setup_s": 2.25,  # median over the runs
        "analyze_s": (4.0 + 6.0) / 2,  # per-trace median, mean over traces
        "cpu_s": (5.0 + 7.0) / 2,
        "peak_rss_mb": (40.0 + 60.0) / 2,
    }


@pytest.fixture(scope="module")
def benchmark_json():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json sits at the repository root")
    with open(path) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == sorted(WORKLOADS)
    for entry in benchmark_json["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
