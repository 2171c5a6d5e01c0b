"""Seeded input generation is deterministic."""

import workloads
from workloads import TraceSpec, generate, trace_seeds

SMALL = TraceSpec("multiphase", 12, 2)


def test_same_seed_same_trace_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = generate(SMALL, 7, str(tmp_path / "a"), with_truth=True)
    second = generate(SMALL, 7, str(tmp_path / "b"))
    assert first.sha256 == second.sha256
    assert first.n_records == second.n_records > 0
    assert first.kernels == ("multiphase",)
    assert first.truth_path is not None and second.truth_path is None


def test_other_seed_other_trace(tmp_path):
    assert generate(SMALL, 1, str(tmp_path)).sha256 != generate(SMALL, 2, str(tmp_path)).sha256


def test_trace_seeds_are_disjoint_between_benchmark_seeds():
    seen = set()
    for seed in range(50):
        seeds = trace_seeds(seed, 3)
        assert len(set(seeds)) == 3 and not seen & set(seeds)
        seen.update(seeds)


def test_workload_table_shape():
    for name, workload in workloads.WORKLOADS.items():
        assert name == workload.name
        assert len(workload.why) <= 200 and "\n" not in workload.why
