"""Correctness checks applied to every timed run.

An ``analyze`` run passes when its phase boundaries score at least the
per-kernel F1 floors below against the generator's ground truth.  Only
the first ``analyze`` run of a benchmark run is scored; every later one
must reproduce its result digest, which implies the same scores.

A ``watch`` run passes when the digest of its ``finalize`` result equals
the digest of a cold ``analyze`` of the same trace in the same
environment (byte-identical result JSON).

The digest is the sha256 of the result JSON (``result_to_dict``, keys
sorted).  It is only compared within one environment: the multiphase
result is known to change with the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Dict, List, Optional

__all__ = [
    "F1_FLOORS",
    "result_digest",
    "detection_f1",
    "analyze_problems",
    "watch_problems",
]

# Per-kernel boundary F1 of the program at the commit that defined the
# benchmark, identical on seeds 0-9 of both batch traces.  cgpop.matvec
# finds one of its two boundaries (F1 = 2/3): a recall limit of the
# method, not of the benchmark.
F1_FLOORS: Dict[str, float] = {
    "multiphase": 1.0,
    "cgpop.dot": 1.0,
    "cgpop.matvec": 2.0 / 3.0,
}
F1_SLACK = 1e-9


def result_digest(result) -> str:
    """sha256 of the canonical result JSON."""
    from repro.store import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def detection_f1(result, truth_path: str) -> Dict[str, float]:
    """Per-kernel boundary F1 of ``result`` against the pickled ground
    truth ``(app, core, timeline)`` that generated its trace."""
    from repro.analysis.experiments import RunArtifacts, detection_scores

    with open(truth_path, "rb") as handle:
        app, core, timeline = pickle.load(handle)
    artifacts = RunArtifacts(
        app=app, core=core, timeline=timeline, trace=None, result=result
    )
    return {name: score.f1 for name, score in detection_scores(artifacts).items()}


def analyze_problems(
    record: Dict[str, object], kernels: List[str], reference_digest: Optional[str]
) -> List[str]:
    """Reasons an ``analyze`` run record fails (empty when it passes)."""
    problems = _exit_problems(record)
    if problems:
        return problems
    f1 = record.get("f1")
    if f1 is None and reference_digest is None:
        problems.append("run neither scored nor comparable to a scored run")
    for kernel in kernels if f1 is not None else ():
        floor = F1_FLOORS.get(kernel)
        if floor is None:
            problems.append(f"no F1 floor for kernel {kernel!r}")
        elif kernel not in f1:
            problems.append(f"kernel {kernel!r}: no cluster analyzed")
        elif f1[kernel] < floor - F1_SLACK:
            problems.append(f"kernel {kernel!r}: F1 {f1[kernel]:.3f} < floor {floor:.3f}")
    if reference_digest is not None and record["digest"] != reference_digest:
        problems.append(
            f"result digest {record['digest'][:12]} != {reference_digest[:12]} "
            f"of the first analyze run on this trace"
        )
    return problems


def watch_problems(record: Dict[str, object], reference_digest: str) -> List[str]:
    """Reasons a ``watch`` run record fails (empty when it passes)."""
    problems = _exit_problems(record)
    if problems:
        return problems
    if record["n_bursts"] < 1:
        problems.append("no burst was ingested live")
    if record["digest"] != reference_digest:
        problems.append(
            f"finalize digest {record['digest'][:12]} != cold analyze "
            f"{reference_digest[:12]}"
        )
    return problems


def _exit_problems(record: Dict[str, object]) -> List[str]:
    if record.get("error"):
        return [f"run raised: {record['error']}"]
    if record.get("exit_code", 0) != 0:
        return [f"command exited {record['exit_code']}"]
    return []
