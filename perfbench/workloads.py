"""Workload table and seeded generation of the input traces.

A workload is ``repro analyze`` on ``N_BATCH`` distinct *batch* traces
(several, because one cgpop trace's analyze time varies by +-15% with its
seed); its traced run also replays one *live* trace through ``watch``.
See README.md for why each was chosen.

Traces are made the way ``repro trace`` makes them (execution engine +
sampling tracer, 20 ms sampling period) from seeds derived from the
benchmark's ``--seed``, so the same seed gives byte-identical traces.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PERIOD_S",
    "TraceSpec",
    "Workload",
    "WORKLOADS",
    "LIVE",
    "N_BATCH",
    "MIN_BATCH",
    "GeneratedTrace",
    "trace_seeds",
    "generate",
]

PERIOD_S = 0.02
SEED_STRIDE = 16  # more than N_BATCH


@dataclass(frozen=True)
class TraceSpec:
    app: str
    iterations: int
    ranks: int

    @property
    def label(self) -> str:
        return f"{self.app} {self.iterations}x{self.ranks}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: TraceSpec  # analyzed by `repro analyze` runs


# The live trace of every workload's traced run: a multiphase 40x4 stream
# (160 bursts, three reservoir refits).
LIVE = TraceSpec("multiphase", 40, 4)
N_BATCH = 2
# Fewest `repro analyze` runs per benchmark run, cycling over the batch
# traces (more while --seconds lasts); the repeat checks the digest.
MIN_BATCH = 3

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="analyze-cgpop",
            why="cgpop 400x8 analyze is ingest and clustering bound (reader, DBSCAN, monotonicity filter)",
            batch=TraceSpec("cgpop", 400, 8),
        ),
        Workload(
            name="analyze-multiphase",
            why="multiphase 400x8 analyze is fitting bound (PWLR search, tall NNLS, BLAS threads)",
            batch=TraceSpec("multiphase", 400, 8),
        ),
    )
}


def trace_seeds(seed: int, n: int) -> List[int]:
    """Generator seeds of ``n`` traces of one kind for benchmark seed
    ``seed`` (disjoint between benchmark seeds)."""
    return [seed * SEED_STRIDE + i for i in range(n)]


@dataclass(frozen=True)
class GeneratedTrace:
    spec: TraceSpec
    seed: int
    path: str
    sha256: str
    generation_s: float
    n_records: int
    n_bursts: int
    simulated_s: float
    kernels: Tuple[str, ...]
    truth_path: Optional[str]

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.spec.label,
            "seed": self.seed,
            "sha256": self.sha256,
            "generation_s": round(self.generation_s, 4),
            "records": self.n_records,
            "bursts": self.n_bursts,
            "simulated_s": round(self.simulated_s, 4),
            "bursts_per_simulated_s": round(self.n_bursts / self.simulated_s, 3),
        }


def _builders():
    from repro.workload.apps import cgpop_app, multiphase_app

    return {"cgpop": cgpop_app, "multiphase": multiphase_app}


def generate(
    spec: TraceSpec, seed: int, out_dir: str, with_truth: bool = False
) -> GeneratedTrace:
    """Write the trace of ``spec`` at ``seed`` under ``out_dir``; with
    ``with_truth`` also pickle ``(app, core, timeline)`` for scoring."""
    from repro.machine.cpu import CoreModel
    from repro.machine.spec import MachineSpec
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.sampler import SamplerConfig
    from repro.runtime.tracer import Tracer, TracerConfig
    from repro.trace.writer import write_trace

    stem = f"{spec.app}-{spec.iterations}x{spec.ranks}-s{seed}"
    path = os.path.join(out_dir, stem + ".rpt")
    start = time.perf_counter()
    app = _builders()[spec.app](iterations=spec.iterations, ranks=spec.ranks)
    core = CoreModel(MachineSpec())
    timeline = ExecutionEngine(core, seed=seed).run(app)
    config = TracerConfig(sampler=SamplerConfig(period_s=PERIOD_S), seed=seed)
    trace = Tracer(config).trace(timeline)
    write_trace(trace, path)
    generation_s = time.perf_counter() - start
    truth_path = None
    if with_truth:
        truth_path = os.path.join(out_dir, stem + ".truth.pickle")
        with open(truth_path, "wb") as handle:
            pickle.dump((app, core, timeline), handle)
    with open(path, "rb") as handle:
        sha256 = hashlib.sha256(handle.read()).hexdigest()
    return GeneratedTrace(
        spec=spec,
        seed=seed,
        path=path,
        sha256=sha256,
        generation_s=generation_s,
        n_records=trace.n_records,
        n_bursts=len(timeline.all_bursts()),
        simulated_s=float(trace.duration),
        kernels=tuple(k.name for k in app.kernels()),
        truth_path=truth_path,
    )
