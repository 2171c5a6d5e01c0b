"""The correctness checks accept the program's results and reject
tampered ones."""

import copy

import pytest

from checks import analyze_problems, detection_f1, result_digest, watch_problems
from workloads import TraceSpec, generate


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    from repro.analysis.pipeline import AnalyzerConfig, FoldingAnalyzer
    from repro.trace.reader import read_trace

    out = tmp_path_factory.mktemp("checks")
    trace = generate(TraceSpec("multiphase", 100, 4), 0, str(out), with_truth=True)
    result = FoldingAnalyzer(AnalyzerConfig()).analyze(read_trace(trace.path))
    return trace, result


def _analyze_record(trace, result):
    return {
        "exit_code": 0,
        "f1": detection_f1(result, trace.truth_path),
        "digest": result_digest(result),
    }


def _drop_phase(result):
    tampered = copy.deepcopy(result)
    phases = tampered.dominant_cluster().phase_set.phases
    assert len(phases) >= 3
    del phases[1]
    return tampered


def test_program_result_passes(analyzed):
    trace, result = analyzed
    record = _analyze_record(trace, result)
    assert analyze_problems(record, list(trace.kernels), record["digest"]) == []


def test_dropped_phase_is_rejected(analyzed):
    trace, result = analyzed
    record = _analyze_record(trace, _drop_phase(result))
    problems = analyze_problems(record, list(trace.kernels), result_digest(result))
    assert any("F1" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_missing_kernel_and_failed_exit_are_rejected(analyzed):
    trace, result = analyzed
    record = _analyze_record(trace, result)
    record["f1"] = {}
    assert analyze_problems(record, list(trace.kernels), None) == [
        "kernel 'multiphase': no cluster analyzed"
    ]
    assert analyze_problems({"exit_code": 1}, list(trace.kernels), None)
    assert analyze_problems({"error": "Traceback"}, list(trace.kernels), None)


def test_unscored_run_must_reproduce_the_scored_digest(analyzed):
    trace, result = analyzed
    reference = result_digest(result)
    unscored = {"exit_code": 0, "digest": reference}
    assert analyze_problems(unscored, list(trace.kernels), reference) == []
    assert analyze_problems(unscored, list(trace.kernels), None)
    unscored["digest"] = result_digest(_drop_phase(result))
    assert analyze_problems(unscored, list(trace.kernels), reference)


def test_changed_finalize_digest_is_rejected(analyzed):
    _, result = analyzed
    reference = result_digest(result)
    record = {"exit_code": 0, "n_bursts": 400, "digest": reference}
    assert watch_problems(record, reference) == []
    record["digest"] = result_digest(_drop_phase(result))
    assert watch_problems(record, reference)
    record["digest"] = reference[:-1] + ("0" if reference[-1] != "0" else "1")
    assert watch_problems(record, reference)
