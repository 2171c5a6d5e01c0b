"""One timed run of the program in a fresh process.

    python3 perfbench/child.py analyze TRACE OUT T_SPAWN [--traced] [--truth PICKLE]
    python3 perfbench/child.py watch   TRACE OUT T_SPAWN [--traced]
    python3 perfbench/child.py setup   -     OUT T_SPAWN

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers the
interpreter start and ``import repro.cli``.  Only ``os``, ``resource``,
``sys`` and ``time`` are imported before the program, and the record
(JSON) is written to ``OUT`` after every timed interval has closed.

``analyze`` runs ``repro.cli.main(["-q", "analyze", TRACE])`` with stdout
captured.  ``watch`` does what ``repro watch TRACE --until-idle 0`` does:
a ``StreamEngine`` follows a ``TraceTailSource`` (64 KiB chunks) under an
enabled observability context, then ``finalize`` gives the exact result.
"""

import os
import resource
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)


def _cpu_s() -> float:
    """User + system CPU seconds of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM).  ``ru_maxrss``
    would also count the parent's resident set, which Linux carries
    across fork and exec."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _setup_record(t_spawn: float) -> dict:
    start = time.monotonic()
    import numpy  # noqa: F401

    t_numpy = time.monotonic()
    import scipy.optimize  # noqa: F401

    t_scipy = time.monotonic()
    import repro.cli  # noqa: F401

    t_repro = time.monotonic()
    return {
        "setup_s": t_repro - t_spawn,
        "interpreter_s": start - t_spawn,
        "numpy_s": t_numpy - start,
        "scipy_s": t_scipy - t_numpy,
        "repro_s": t_repro - t_scipy,
    }


class _CaptureResult:
    """Keeps the AnalysisResult ``repro analyze`` hands to generate_hints
    (one pass-through call per run, traced or not)."""

    def __init__(self) -> None:
        self.result = None

    def __enter__(self):
        import repro.cli

        self._original = repro.cli.generate_hints

        def generate_hints(result, *args, **kwargs):
            self.result = result
            return self._original(result, *args, **kwargs)

        repro.cli.generate_hints = generate_hints
        return self

    def __exit__(self, *exc) -> None:
        import repro.cli

        repro.cli.generate_hints = self._original


def _run_analyze(path: str, record: dict) -> object:
    import contextlib
    import io

    import repro.cli

    with _CaptureResult() as capture:
        stdout = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        with contextlib.redirect_stdout(stdout):
            record["exit_code"] = repro.cli.main(["-q", "analyze", path])
        t1 = time.monotonic()
        cpu1 = _cpu_s()
    record["window"] = (t0, t1)
    record["analyze_s"] = t1 - t0
    record["cpu_s"] = cpu1 - cpu0
    return capture.result


def _run_watch(path: str, record: dict) -> object:
    from repro.observability import Observability
    from repro.stream import StreamConfig, StreamEngine, TraceTailSource

    engine = StreamEngine(StreamConfig())
    source = TraceTailSource(path)
    try:
        cpu0 = _cpu_s()
        with Observability().activate():
            t0 = time.monotonic()
            engine.follow(source, idle_timeout=0.0)
            t1 = time.monotonic()
            result = engine.finalize(source)
            t2 = time.monotonic()
        cpu1 = _cpu_s()
    finally:
        source.close()
    record["window"] = (t0, t2)
    record["live_s"] = t1 - t0
    record["finalize_s"] = t2 - t1
    record["cpu_s"] = cpu1 - cpu0
    record["n_bursts"] = engine.n_bursts
    record["n_refits"] = engine.n_refits
    return result


def _layer_record(recorder, result, window) -> dict:
    """Per-layer metrics of one traced run (see README.md for names)."""
    import tracing

    spans = recorder.spans
    stats = tracing.layer_stats(spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    layers = {}
    for name, keys in (
        ("trace.read_trace", ("s",)),
        ("clustering.extract_bursts", ("s",)),
        ("clustering.build_features", ("s",)),
        ("clustering.estimate_eps", ("s",)),
        ("clustering.dbscan_fit", ("s",)),
        ("folding.select_instances", ("s",)),
        ("folding.fold_cluster", ("s",)),
        ("folding.filter", ("s",)),
        ("folding.fold_callstacks", ("s",)),
        ("fitting.fit_pwlr", ("calls", "self_s")),
        ("fitting.fit_fixed_breakpoints", ("calls", "s")),
        ("fitting.nnls", ("calls", "s")),
        ("fitting.refit_slopes_many", ("calls", "s")),
        ("phases.detect_phases", ("self_s",)),
        ("phases.map_phases_to_source", ("s",)),
        ("analysis.analyze", ("self_s",)),
        ("analysis.generate_hints", ("s",)),
        ("analysis.render_report", ("s",)),
        ("stream.parser_feed", ("s",)),
        ("stream.assembler_feed", ("s",)),
        ("stream.assign", ("s",)),
        ("stream.refit", ("calls", "s")),
        ("stream.finalize", ("s",)),
    ):
        for key in keys:
            layers[f"{name}.{key}"] = stat(name, key)
    counts = recorder.counts
    layers["trace.read_trace.records"] = counts.get("trace.read_trace.records", 0)
    layers["stream.refit.failures"] = counts.get("stream.refit.failures", 0)
    layers["stream.refit.fit_fixed_breakpoints.calls"] = tracing.count_under(
        spans, "fitting.fit_fixed_breakpoints", "stream.refit"
    )
    layers["stream.finalize.refits"] = tracing.count_under(
        spans, "stream.refit", "stream.finalize"
    )
    layers["stream.finalize.read_s"] = tracing.seconds_under(
        spans, "trace.read_trace", "stream.finalize"
    )
    layers["stream.finalize.analyze_s"] = tracing.seconds_under(
        spans, "analysis.analyze", "stream.finalize"
    )
    evaluations = counts.get("fitting.candidate_evaluations", 0)
    layers["fitting.candidate_evaluations"] = evaluations
    layers["fitting.search_cache_hit_ratio"] = (
        counts.get("fitting.search_cache_hits", 0) / evaluations if evaluations else 0.0
    )
    if result is not None:
        layers["clustering.bursts"] = len(result.bursts)
        layers["clustering.clusters"] = result.clustering.n_clusters
        layers["clustering.noise_fraction"] = result.clustering.noise_fraction
        layers["folding.points"] = sum(
            fc.x.size for c in result.clusters for fc in c.folded.values()
        )
        layers["folding.points_dropped"] = sum(
            r.n_dropped for c in result.clusters for r in c.filter_reports
        )
        layers["phases.detected"] = sum(len(c.phase_set) for c in result.clusters)
    t0, t1 = window
    layers["residue_s"] = (t1 - t0) - tracing.root_seconds(spans)
    layers["top_self_s"] = sorted(
        ((name, entry["self_s"]) for name, entry in stats.items()),
        key=lambda item: -item[1],
    )[:8]
    return layers


def main(argv) -> int:
    mode, path, out, t_spawn = argv[:4]
    t_spawn = float(t_spawn)
    if mode == "setup":
        record = _setup_record(t_spawn)
    else:
        import repro.cli  # noqa: F401  (what every `repro` command imports)

        record = {"setup_s": time.monotonic() - t_spawn}
    import json
    import traceback

    if mode != "setup":
        import checks
        import tracing

        traced = "--traced" in argv
        recorder = tracing.SpanRecorder(clock=time.monotonic)
        run = _run_analyze if mode == "analyze" else _run_watch
        try:
            if traced:
                with tracing.Instrumentation(recorder):
                    result = run(path, record)
            else:
                result = run(path, record)
            record["peak_rss_mb"] = _peak_rss_mb()
            record["digest"] = checks.result_digest(result)
            if "--truth" in argv:
                truth = argv[argv.index("--truth") + 1]
                record["f1"] = checks.detection_f1(result, truth)
            if traced:
                record["layers"] = _layer_record(recorder, result, record["window"])
        except Exception:
            record["error"] = traceback.format_exc(limit=8)
    with open(out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
