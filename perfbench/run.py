"""Benchmark of `repro analyze` and `repro watch` on seeded generated traces.

    python3 perfbench/run.py --workload analyze-cgpop --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One benchmark run:

1. generates the workload's traces from ``--seed`` (sha256 and generation
   time recorded; generation is not timed as a metric);
2. starts one fresh process (``child.py``) per timed run, one at a time:
   ``repro analyze`` runs cycling over the batch traces until
   ``--seconds`` of measuring have passed (at least ``MIN_BATCH`` of them);
   with ``--trace 1``, an import-timing run, an untraced and a traced
   ``watch`` replay of one live trace (its reference digest from a cold
   in-process analyze), and two untraced and one traced ``analyze`` run;
3. checks every run (``checks.py``) and prints the end-to-end metrics, or
   with ``--trace 1`` the per-layer metrics.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment, goes
to stderr and to ``perfbench/out/``.  BLAS/OpenMP thread variables are
recorded as inherited, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 150.0
# No optional batch run starts after this much of a benchmark run; the
# whole run must end within 180 s.
OPTIONAL_RUN_DEADLINE_S = 110.0
MAX_BATCH = 12

# (name, unit, better) — BENCHMARK.json lists the same metrics.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("setup.numpy_s", "s", "lower"),
    ("setup.scipy_s", "s", "lower"),
    ("setup.repro_s", "s", "lower"),
    ("trace.read_trace.s", "s", "lower"),
    ("trace.read_trace.records", "count", "higher"),
    ("clustering.extract_bursts.s", "s", "lower"),
    ("clustering.build_features.s", "s", "lower"),
    ("clustering.estimate_eps.s", "s", "lower"),
    ("clustering.dbscan_fit.s", "s", "lower"),
    ("clustering.bursts", "count", "higher"),
    ("clustering.clusters", "count", "higher"),
    ("clustering.noise_fraction", "ratio", "lower"),
    ("folding.select_instances.s", "s", "lower"),
    ("folding.fold_cluster.s", "s", "lower"),
    ("folding.filter.s", "s", "lower"),
    ("folding.fold_callstacks.s", "s", "lower"),
    ("folding.points", "count", "higher"),
    ("folding.points_dropped", "count", "lower"),
    ("fitting.fit_pwlr.calls", "count", "lower"),
    ("fitting.fit_pwlr.self_s", "s", "lower"),
    ("fitting.fit_fixed_breakpoints.calls", "count", "lower"),
    ("fitting.fit_fixed_breakpoints.s", "s", "lower"),
    ("fitting.nnls.calls", "count", "lower"),
    ("fitting.nnls.s", "s", "lower"),
    ("fitting.refit_slopes_many.calls", "count", "lower"),
    ("fitting.refit_slopes_many.s", "s", "lower"),
    ("fitting.candidate_evaluations", "count", "lower"),
    ("fitting.search_cache_hit_ratio", "ratio", "higher"),
    ("phases.detect_phases.self_s", "s", "lower"),
    ("phases.map_phases_to_source.s", "s", "lower"),
    ("phases.detected", "count", "higher"),
    ("analysis.analyze.self_s", "s", "lower"),
    ("analysis.generate_hints.s", "s", "lower"),
    ("analysis.render_report.s", "s", "lower"),
    ("stream.parser_feed.s", "s", "lower"),
    ("stream.assembler_feed.s", "s", "lower"),
    ("stream.assign.s", "s", "lower"),
    ("stream.refit.calls", "count", "lower"),
    ("stream.refit.s", "s", "lower"),
    ("stream.refit.failures", "count", "lower"),
    ("stream.refit.fit_fixed_breakpoints.calls", "count", "lower"),
    ("stream.live_bursts_per_s", "bursts/s", "higher"),
    ("stream.finalize.s", "s", "lower"),
    ("stream.finalize.refits", "count", "lower"),
    ("stream.finalize.read_s", "s", "lower"),
    ("stream.finalize.analyze_s", "s", "lower"),
    ("residue.analyze_s", "s", "lower"),
    ("residue.watch_s", "s", "lower"),
    ("tracing.overhead_analyze_s", "s", "lower"),
    ("tracing.overhead_live_s", "s", "lower"),
)

THREAD_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "VECLIB_", "GOTO_", "NUMEXPR_")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    """Interpreter, numpy/scipy, BLAS builds and thread settings in force."""
    import platform

    import numpy
    import scipy

    blas: Dict[str, object] = {}
    for module in (numpy, scipy):
        try:
            config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # show_config without mode="dicts"
            blas[module.__name__] = "unknown"
            continue
        blas[module.__name__] = {
            "name": config.get("name"),
            "version": config.get("version"),
            "configuration": config.get("openblas configuration"),
        }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_ENV_PREFIXES)
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------
def spawn(mode: str, trace_path: str, work: str, *extra: str) -> Dict[str, object]:
    """Run ``child.py`` once, wait for it, and return its record."""
    handle, out = tempfile.mkstemp(prefix=f"{mode}-", suffix=".json", dir=work)
    os.close(handle)
    record: Dict[str, object] = {"mode": mode, "traced": "--traced" in extra}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, trace_path, out, repr(t_spawn), *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        return record
    try:
        with open(out) as fh:
            record.update(json.load(fh))
    except (OSError, ValueError):
        record["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    return record


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _ok(records: List[Dict[str, object]], mode: str, traced: bool = False):
    return [
        r for r in records
        if r["mode"] == mode and r["traced"] == traced and not r.get("problems")
    ]


def _mean_of_medians(records: List[Dict[str, object]], key: str) -> Optional[float]:
    """Median of ``key`` per batch trace, averaged over the batch traces."""
    by_trace: Dict[str, List[float]] = {}
    for r in records:
        by_trace.setdefault(r["trace_path"], []).append(r[key])
    if not by_trace:
        return None
    return statistics.fmean(statistics.median(v) for v in by_trace.values())


def end_to_end_metrics(records: List[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """Metrics of the passing untraced runs of one benchmark run: setup is
    the median over the runs, the rest per-trace medians averaged over the
    batch traces."""
    batch = _ok(records, "analyze")
    return {
        "setup_s": _median([r["setup_s"] for r in batch]),
        "analyze_s": _mean_of_medians(batch, "analyze_s"),
        "cpu_s": _mean_of_medians(batch, "cpu_s"),
        "peak_rss_mb": _mean_of_medians(batch, "peak_rss_mb"),
    }


def per_layer_metrics(records: List[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """Layer metrics of the traced runs: ``stream.*`` from the traced watch
    run, every other layer from the traced analyze run."""
    metrics: Dict[str, Optional[float]] = {name: None for name, _, _ in PER_LAYER}
    setup = [r for r in records if r["mode"] == "setup" and not r.get("error")]
    if setup:
        for part in ("numpy", "scipy", "repro"):
            metrics[f"setup.{part}_s"] = setup[0][f"{part}_s"]
    analyze = _ok(records, "analyze", traced=True)
    watch = _ok(records, "watch", traced=True)
    if analyze:
        layers = analyze[0]["layers"]
        for name in metrics:
            if name in layers and not name.startswith("stream."):
                metrics[name] = layers[name]
        metrics["residue.analyze_s"] = layers["residue_s"]
        untraced = _median(
            [
                r["analyze_s"]
                for r in _ok(records, "analyze")
                if r["trace_path"] == analyze[0]["trace_path"]
            ]
        )
        if untraced is not None:
            metrics["tracing.overhead_analyze_s"] = analyze[0]["analyze_s"] - untraced
    if watch:
        layers = watch[0]["layers"]
        for name in metrics:
            if name in layers and name.startswith("stream."):
                metrics[name] = layers[name]
        metrics["residue.watch_s"] = layers["residue_s"]
        untraced = _ok(records, "watch")
        if untraced:
            metrics["stream.live_bursts_per_s"] = untraced[0]["n_bursts"] / untraced[0]["live_s"]
            metrics["tracing.overhead_live_s"] = watch[0]["live_s"] - untraced[0]["live_s"]
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """One benchmark run of workload ``name``; returns its full record."""
    import checks
    from workloads import LIVE, MIN_BATCH, N_BATCH, WORKLOADS, generate, trace_seeds

    from repro.analysis.pipeline import AnalyzerConfig, FoldingAnalyzer
    from repro.trace.reader import read_trace

    workload = WORKLOADS[name]
    run_start = time.monotonic()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, ".work"))
    try:
        batches = [
            generate(workload.batch, s, work, with_truth=True)
            for s in trace_seeds(seed, N_BATCH)
        ]
        # The live replay feeds only the per-layer metrics (see README.md).
        lives = [generate(LIVE, trace_seeds(seed, 1)[0], work)] if traced else []
        reference = {
            live.path: checks.result_digest(
                FoldingAnalyzer(AnalyzerConfig()).analyze(read_trace(live.path))
            )
            for live in lives
        }
        records: List[Dict[str, object]] = []
        # Per batch trace, the digest of its first analyze run, which passed
        # the F1 check; later runs must reproduce it (so the same scores).
        scored: Dict[str, str] = {}

        def run(mode: str, trace_path: str, *extra: str) -> None:
            record = spawn(mode, trace_path, work, *extra)
            record["trace_path"] = trace_path
            if mode == "watch":
                record["problems"] = checks.watch_problems(record, reference[trace_path])
            elif mode == "analyze":
                record["problems"] = checks.analyze_problems(
                    record, list(batches[0].kernels), scored.get(trace_path)
                )
                if not record["problems"]:
                    scored.setdefault(trace_path, record["digest"])
            else:
                record["problems"] = [record["error"]] if record.get("error") else []
            records.append(record)

        def run_batch(batch, *extra: str) -> None:
            truth = () if batch.path in scored else ("--truth", batch.truth_path)
            run("analyze", batch.path, *extra, *truth)

        measure_start = time.monotonic()
        if traced:
            run("setup", "-")
            run("watch", lives[0].path)
            run("watch", lives[0].path, "--traced")
            run_batch(batches[0])
            run_batch(batches[0])
            run_batch(batches[0], "--traced")
        else:
            n_batch = 0
            while n_batch < MIN_BATCH or (
                time.monotonic() - measure_start < seconds
                and n_batch < MAX_BATCH
                and time.monotonic() - run_start < OPTIONAL_RUN_DEADLINE_S
            ):
                run_batch(batches[n_batch % N_BATCH])
                n_batch += 1
        measured_s = time.monotonic() - measure_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    metrics = per_layer_metrics(records) if traced else end_to_end_metrics(records)
    units = {n: u for n, u, _ in (PER_LAYER if traced else END_TO_END)}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "measured_s": measured_s,
        "wall_s": time.monotonic() - run_start,
        "environment": environment(),
        "traces": {
            "batch": [t.to_dict() for t in batches],
            "live": [t.to_dict() for t in lives],
        },
        "runs": [_brief(r) for r in records],
        "problems": [p for r in failed for p in r["problems"]],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def _brief(record: Dict[str, object]) -> Dict[str, object]:
    """A timed run's record without the bulky per-layer payload."""
    keep = {k: v for k, v in record.items() if k not in ("layers", "window", "error")}
    keep["trace_path"] = os.path.basename(str(record.get("trace_path", "")))
    if record.get("layers"):
        keep["top_self_s"] = record["layers"]["top_self_s"]
        keep["residue_s"] = record["layers"]["residue_s"]
    return keep


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render(result: Dict[str, object]) -> str:
    """Human-readable metric table (+ traced-run layer report)."""
    lines = [
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"runs={result['attempted']} failed={result['failed']} "
        f"measured={result['measured_s']:.1f}s"
    ]
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<42} {shown:>14} {entry['unit']}")
    for run in result["runs"]:
        if "top_self_s" in run:
            wall = run.get("analyze_s") or (run.get("live_s", 0) + run.get("finalize_s", 0))
            lines.append(f"  traced {run['mode']} run: top layers by self time of {wall:.3f} s")
            for layer, self_s in run["top_self_s"]:
                lines.append(f"    {layer:<40} {self_s:9.4f} s {100 * self_s / wall:5.1f}%")
            lines.append(
                f"    {'(residue: not inside any span)':<40} {run['residue_s']:9.4f} s "
                f"{100 * run['residue_s'] / wall:5.1f}%"
            )
    for problem in result["problems"]:
        lines.append(f"  FAILED: {problem}")
    return "\n".join(lines)


def summary_line(results: List[Dict[str, object]]) -> str:
    """The machine-readable last line (one workload, or ``all``)."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": entry
            for r in results
            for name, entry in r["metrics"].items()
        }
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        path = os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print(json.dumps({k: result[k] for k in ("environment", "traces")}), file=sys.stderr)
        print(render(result), flush=True)
    print(summary_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
