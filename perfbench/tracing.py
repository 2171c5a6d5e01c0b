"""Span recording around the program's layer boundaries, from outside.

The traced run replaces chosen callables of the program with thin
wrappers that record one span per call: name, start, end and the span
that was open when the call began (its parent).  Spans stay in memory;
:func:`layer_stats` turns them into per-layer call counts, inclusive
seconds and self seconds.  :class:`Instrumentation` puts every original
callable back when it exits, so the program itself is never edited.

Each wrapper sits on the name the *caller* looks up: a function imported
into ``repro.analysis.pipeline`` is wrapped there, a class method on its
class.  The same function can therefore carry different span names at
different call sites (``detect_phases`` is ``phases.detect_phases`` in
the batch pipeline and ``stream.refit`` in the streaming engine).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "Target",
    "TARGETS",
    "Instrumentation",
    "layer_stats",
    "count_under",
    "seconds_under",
    "root_seconds",
]

ROOT = -1


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, or ROOT


class SpanRecorder:
    """In-memory span store with an explicit open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else ROOT
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans must end in the reverse order they began")
        self.spans[index] = self.spans[index]._replace(end=self.clock())

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(result)`` (when
        given) is added to the counter ``<name>.<count.__name__>``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add_count(f"{name}.failures", 1)
                raise
            finally:
                self.end(index)
            if count is not None:
                self.add_count(f"{name}.{count.__name__}", count(result))
            return result

        return wrapper


def records(trace) -> int:
    """Record count of a :class:`~repro.trace.records.Trace`."""
    return trace.n_records


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + dotted ``attr`` → span ``name``."""

    module: str
    attr: str
    name: str
    count: Optional[Callable] = None


# Every layer boundary the traced run records, at the caller's name.
TARGETS: Tuple[Target, ...] = (
    # `repro analyze` (repro.cli) and finalize (repro.stream.engine)
    Target("repro.cli", "read_trace", "trace.read_trace", records),
    Target("repro.stream.engine", "read_trace", "trace.read_trace", records),
    Target("repro.analysis.pipeline", "FoldingAnalyzer.analyze", "analysis.analyze"),
    Target("repro.cli", "generate_hints", "analysis.generate_hints"),
    Target("repro.cli", "render_report", "analysis.render_report"),
    # clustering
    Target("repro.analysis.pipeline", "extract_bursts", "clustering.extract_bursts"),
    Target("repro.analysis.pipeline", "build_features", "clustering.build_features"),
    Target("repro.analysis.pipeline", "estimate_eps", "clustering.estimate_eps"),
    Target("repro.clustering.dbscan", "DBSCAN.fit", "clustering.dbscan_fit"),
    # folding
    Target("repro.analysis.pipeline", "select_instances", "folding.select_instances"),
    Target("repro.analysis.pipeline", "fold_cluster", "folding.fold_cluster"),
    Target("repro.analysis.pipeline", "clip_to_unit_range", "folding.filter"),
    Target("repro.analysis.pipeline", "enforce_instance_monotonicity", "folding.filter"),
    Target("repro.analysis.pipeline", "fold_callstacks", "folding.fold_callstacks"),
    # phases and fitting
    Target("repro.analysis.pipeline", "detect_phases", "phases.detect_phases"),
    Target("repro.analysis.pipeline", "map_phases_to_source", "phases.map_phases_to_source"),
    Target("repro.phases.detect", "fit_pwlr", "fitting.fit_pwlr"),
    Target("repro.phases.detect", "refit_slopes_many", "fitting.refit_slopes_many"),
    Target("repro.fitting.pwlr", "fit_fixed_breakpoints", "fitting.fit_fixed_breakpoints"),
    Target("repro.fitting.pwlr", "nnls", "fitting.nnls"),
    # streaming
    Target("repro.stream.source", "StreamParser.feed", "stream.parser_feed"),
    Target("repro.stream.assembly", "IncrementalBurstAssembler.feed", "stream.assembler_feed"),
    Target("repro.stream.model", "OnlineClusterModel.assign", "stream.assign"),
    Target("repro.stream.engine", "detect_phases", "stream.refit"),
    Target("repro.stream.engine", "StreamEngine.finalize", "stream.finalize"),
)

# Program counters copied into the traced record (fit_pwlr flushes them
# once per fit through repro.fitting.pwlr._metric_counter).
COPIED_COUNTERS = {
    "pwlr.candidate_evaluations": "fitting.candidate_evaluations",
    "pwlr.search_cache_hits": "fitting.search_cache_hits",
}


class _CountingCounter:
    """Pass-through program counter that also adds into the recorder."""

    def __init__(self, inner, name: str, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._name = name
        self._recorder = recorder

    def inc(self, amount=1) -> None:
        self._recorder.add_count(self._name, amount)
        self._inner.inc(amount)


def _resolve(target_module: str, attr: str):
    owner = importlib.import_module(target_module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Instrumentation:
    """Context manager: install wrappers for ``targets``, restore on exit."""

    def __init__(
        self, recorder: SpanRecorder, targets: Tuple[Target, ...] = TARGETS
    ) -> None:
        self.recorder = recorder
        self.targets = targets
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for t in self.targets:
                self._replace(t.module, t.attr, lambda fn, t=t: self.recorder.wrap(t.name, fn, t.count))
            self._replace("repro.fitting.pwlr", "_metric_counter", self._counter_shim)
        except BaseException:
            self.restore()
            raise
        return self

    def _replace(self, module: str, attr: str, make: Callable) -> None:
        owner, leaf = _resolve(module, attr)
        original = vars(owner)[leaf]
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def _counter_shim(self, original: Callable) -> Callable:
        recorder = self.recorder

        def counter(name: str):
            inner = original(name)
            copied = COPIED_COUNTERS.get(name)
            return inner if copied is None else _CountingCounter(inner, copied, recorder)

        return counter

    def restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _has_ancestor(spans: List[Span], span: Span, names) -> bool:
    parent = span.parent
    while parent != ROOT:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    ``s`` counts only the outermost span of a name, so a layer that calls
    itself is not counted twice.  ``self_s`` is each span's duration
    minus the durations of its direct children, summed.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent != ROOT:
            child_time[span.parent] += span.end - span.start
    stats: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        if not _has_ancestor(spans, span, (span.name,)):
            entry["s"] += duration
    return stats


def count_under(spans: List[Span], name: str, ancestor: str) -> int:
    """Spans called ``name`` opened inside a span called ``ancestor``."""
    return sum(
        1 for s in spans if s.name == name and _has_ancestor(spans, s, (ancestor,))
    )


def seconds_under(spans: List[Span], name: str, ancestor: str) -> float:
    """Inclusive seconds of ``name`` spans inside an ``ancestor`` span."""
    return sum(
        s.end - s.start
        for s in spans
        if s.name == name
        and _has_ancestor(spans, s, (ancestor,))
        and not _has_ancestor(spans, s, (name,))
    )


def root_seconds(spans: List[Span]) -> float:
    """Seconds covered by top-level spans (they never overlap)."""
    return sum(s.end - s.start for s in spans if s.parent == ROOT)
