"""repro — folding + piece-wise linear regression phase detection.

A from-scratch Python reproduction of *Identifying Code Phases Using
Piece-Wise Linear Regressions* (Servat, Llort, González, Giménez, Labarta —
IPDPS 2014), including every substrate the method needs: a synthetic node
model with exact counter ground truth, synthetic MPI applications, a
minimal-instrumentation + coarse-sampling tracer, burst clustering,
folding, the piece-wise linear regression, phase/source mapping, and the
analysis methodology.

Quick start::

    from repro import (
        CoreModel, MachineSpec, describe_application, cgpop_app
    )
    core = CoreModel(MachineSpec())
    description = describe_application(cgpop_app(iterations=150, ranks=4), core)
    print(description.report)

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
tables/figures.

Importing the package pins the BLAS/OpenMP thread pools to one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) unless
the variable is already set: repro parallelises with processes, so BLAS
threads only contend with them.  This works only if numpy has not been
imported yet; see docs/INTERNALS.md ("BLAS threads").
"""

import os

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from repro.machine import (
    BEHAVIOR_LIBRARY,
    Behavior,
    CacheLevelSpec,
    CoreModel,
    MachineSpec,
    RateFunction,
    RateSegment,
)
from repro.counters import (
    Counter,
    CounterRegistry,
    CounterSet,
    DEFAULT_REGISTRY,
    MultiplexSchedule,
    compute_metrics,
)
from repro.source import CallFrame, CallPath, CodeLocation, Routine, SourceFile, SourceModel
from repro.workload import (
    Application,
    CommStep,
    ComputeStep,
    Kernel,
    PhaseSpec,
    VariabilityModel,
    random_kernel,
)
from repro.workload.apps import (
    cgpop_app,
    cgpop_optimized,
    dalton_app,
    dalton_optimized,
    mrgenesis_app,
    mrgenesis_optimized,
    multiphase_app,
    pmemd_app,
    pmemd_optimized,
    two_phase_app,
)
from repro.parallel import NetworkModel
from repro.runtime import (
    ExecutionEngine,
    ExecutionTimeline,
    InstrumentationConfig,
    OverheadModel,
    SamplerConfig,
    Tracer,
    TracerConfig,
)
from repro.errors import DiagnosticsError, ReproError, SalvageError
from repro.resilience import (
    CorruptionSpec,
    Diagnostics,
    Severity,
    corrupt_trace_text,
)
from repro.trace import (
    ReadPolicy,
    SalvageReport,
    Trace,
    compute_stats,
    merge_traces,
    read_trace,
    read_trace_salvaged,
    trim_trace,
    write_trace,
)
from repro.clustering import DBSCAN, extract_bursts, build_features, spmd_score
from repro.extrapolation import extrapolate
from repro.signal import detect_period, representative_window
from repro.folding import fold_cluster, select_instances
from repro.fitting import (
    KernelSmoother,
    PiecewiseLinearModel,
    PWLRConfig,
    evaluate_fit,
    fit_pwlr,
)
from repro.observability import (
    MetricsRegistry,
    Observability,
    Profile,
    SpanRecord,
    configure_cli_logging,
    get_logger,
    progress,
    read_profile_json,
    render_hotspots,
    render_metrics,
    render_profile_tree,
    write_chrome_trace,
    write_jsonl_events,
    write_profile_json,
)
from repro.phases import detect_phases, map_phases_to_source, match_boundaries
from repro.analysis import (
    AnalyzerConfig,
    CaseStudyResult,
    FoldingAnalyzer,
    bootstrap_phase_rates,
    compare_results,
    describe_application,
    generate_hints,
    render_comparison,
    render_report,
    run_case_study,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machine
    "MachineSpec",
    "CacheLevelSpec",
    "CoreModel",
    "Behavior",
    "BEHAVIOR_LIBRARY",
    "RateFunction",
    "RateSegment",
    # counters
    "Counter",
    "CounterRegistry",
    "CounterSet",
    "MultiplexSchedule",
    "DEFAULT_REGISTRY",
    "compute_metrics",
    # source
    "SourceFile",
    "Routine",
    "CodeLocation",
    "SourceModel",
    "CallFrame",
    "CallPath",
    # workload
    "PhaseSpec",
    "VariabilityModel",
    "Kernel",
    "Application",
    "ComputeStep",
    "CommStep",
    "random_kernel",
    "multiphase_app",
    "two_phase_app",
    "cgpop_app",
    "cgpop_optimized",
    "pmemd_app",
    "pmemd_optimized",
    "mrgenesis_app",
    "mrgenesis_optimized",
    "dalton_app",
    "dalton_optimized",
    # parallel + runtime
    "NetworkModel",
    "ExecutionEngine",
    "ExecutionTimeline",
    "Tracer",
    "TracerConfig",
    "SamplerConfig",
    "InstrumentationConfig",
    "OverheadModel",
    # trace
    "Trace",
    "write_trace",
    "read_trace",
    "read_trace_salvaged",
    "ReadPolicy",
    "SalvageReport",
    "merge_traces",
    "trim_trace",
    "compute_stats",
    # resilience
    "ReproError",
    "SalvageError",
    "DiagnosticsError",
    "Severity",
    "Diagnostics",
    "CorruptionSpec",
    "corrupt_trace_text",
    # observability
    "Observability",
    "Profile",
    "SpanRecord",
    "MetricsRegistry",
    "render_profile_tree",
    "render_hotspots",
    "render_metrics",
    "write_profile_json",
    "read_profile_json",
    "write_jsonl_events",
    "write_chrome_trace",
    "get_logger",
    "progress",
    "configure_cli_logging",
    # analysis chain
    "extract_bursts",
    "build_features",
    "DBSCAN",
    "spmd_score",
    "extrapolate",
    "bootstrap_phase_rates",
    "compare_results",
    "render_comparison",
    "detect_period",
    "representative_window",
    "select_instances",
    "fold_cluster",
    "fit_pwlr",
    "PWLRConfig",
    "PiecewiseLinearModel",
    "KernelSmoother",
    "evaluate_fit",
    "detect_phases",
    "map_phases_to_source",
    "match_boundaries",
    "FoldingAnalyzer",
    "AnalyzerConfig",
    "render_report",
    "generate_hints",
    "describe_application",
    "run_case_study",
    "CaseStudyResult",
]
