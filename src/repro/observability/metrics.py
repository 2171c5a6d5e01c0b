"""Process-wide metrics: counters, gauges, and histograms.

The pipeline counts what it does — bursts screened, clusters found and
skipped, folds per counter, PWLR fits and refits, salvage and fallback
events bridged from :class:`~repro.resilience.diagnostics.Diagnostics` —
into the :class:`MetricsRegistry` of the active
:class:`~repro.observability.Observability`.  Registries from separate
runs :meth:`~MetricsRegistry.merge` (benchmark sweeps aggregate this
way), and :meth:`~MetricsRegistry.snapshot` renders everything as a flat
JSON-able dict for the sinks.

The disabled path mirrors :mod:`repro.observability.spans`: a null
registry hands out shared no-op instruments, so ``counter("x").inc()``
costs two cheap calls when observability is off.

Instruments and the registry are thread-safe: a batch run has worker
threads, bus subscribers, and the OpenMetrics scrape thread all touching
one registry, so every update happens under a per-instrument lock (a
plain attribute created in ``__post_init__`` — not a dataclass field, so
``repr``/``eq`` and the constructor signature are unchanged) and
get-or-create happens under a registry lock.  Locks are dropped on
pickle and recreated on unpickle.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetricsRegistry"]

#: Default histogram bucket upper bounds (log-spaced; seconds-friendly).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)

#: Quantiles every snapshot exposes per histogram (as ``.p50`` etc.).
SNAPSHOT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


def _bucket_quantile(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    min_: float,
    max_: float,
    q: float,
) -> float:
    """Quantile over a consistent histogram state copy (0 when empty).

    Finds the bucket holding the ``q``-th ranked observation and
    interpolates linearly inside it, between the bucket's bounds clamped
    to the observed [min, max] (the Prometheus ``histogram_quantile``
    estimate, made tighter by the known extremes).
    """
    if not count:
        return 0.0
    target = q * count
    cumulative = 0
    for i, n in enumerate(bucket_counts):
        if not n:
            continue
        if cumulative + n >= target:
            lower = max(bounds[i - 1], min_) if i > 0 else min_
            upper = min(bounds[i], max_) if i < len(bounds) else max_
            value = lower + (upper - lower) * (target - cumulative) / n
            return min(max(value, min_), max_)
        cumulative += n
    return max_


class _Lockable:
    """Mixin giving instruments a non-field lock that survives pickling."""

    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything except the (unpicklable) lock."""
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore state and recreate a fresh lock."""
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass
class Counter(_Lockable):
    """Monotonically increasing event count."""

    name: str
    value: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self.value += amount


@dataclass
class Gauge(_Lockable):
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0
    is_set: bool = False

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = float(value)
            self.is_set = True


@dataclass
class Histogram(_Lockable):
    """Bucketed distribution with count/sum/min/max."""

    name: str
    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.bounds)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ReproError(
                f"histogram {self.name}: bounds must be strictly increasing"
            )
        self.bounds = bounds
        if not self.bucket_counts:
            # one bucket per bound plus the overflow bucket
            self.bucket_counts = [0] * (len(bounds) + 1)
        elif len(self.bucket_counts) != len(bounds) + 1:
            raise ReproError(
                f"histogram {self.name}: {len(self.bucket_counts)} bucket "
                f"counts for {len(bounds)} bounds"
            )
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        bucket = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[bucket] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def _state(self) -> Tuple[int, float, float, float, List[int]]:
        """Consistent (count, total, min, max, buckets) snapshot."""
        with self._lock:
            return (
                self.count, self.total, self.min, self.max,
                list(self.bucket_counts),
            )

    def _add(
        self, count: int, total: float, min_: float, max_: float,
        bucket_counts: Sequence[int],
    ) -> None:
        """Fold another histogram's state in (same bounds assumed)."""
        with self._lock:
            self.count += count
            self.total += total
            self.min = min(self.min, min_)
            self.max = max(self.max, max_)
            for i, n in enumerate(bucket_counts):
                self.bucket_counts[i] += n

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucketed quantile estimate (0 when empty).

        Interpolates linearly inside the bucket holding the ``q``-th
        ranked observation, clamped to the observed [min, max] — close
        enough for the latency tables (`p50`/`p95`) without storing raw
        samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"histogram {self.name}: quantile {q} not in [0, 1]")
        count, _total, min_, max_, buckets = self._state()
        return _bucket_quantile(self.bounds, buckets, count, min_, max_, q)


class MetricsRegistry:
    """Get-or-create store of named instruments."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the instrument maps without the registry lock."""
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore the instrument maps and recreate the lock."""
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        try:
            return self.counters[name]
        except KeyError:
            with self._lock:
                return self.counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        try:
            return self.gauges[name]
        except KeyError:
            with self._lock:
                return self.gauges.setdefault(name, Gauge(name))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        try:
            return self.histograms[name]
        except KeyError:
            with self._lock:
                return self.histograms.setdefault(
                    name,
                    Histogram(
                        name, bounds=tuple(bounds) if bounds else DEFAULT_BUCKETS
                    ),
                )

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms add; a gauge takes the other registry's
        value when that one was actually set (last-write-wins).
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if gauge.is_set:
                self.gauge(name).set(gauge.value)
        for name, hist in other.histograms.items():
            mine = self.histogram(name, bounds=hist.bounds)
            if mine.bounds != hist.bounds:
                raise ReproError(
                    f"histogram {name}: merging incompatible bucket bounds"
                )
            mine._add(*hist._state())

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-able view: ``{"counter.name": value, ...}``.

        Histograms expand to ``name.count``/``name.sum``/``name.min``/
        ``name.max`` plus bucketed ``name.p50``/``.p95``/``.p99``
        estimates; empty histograms omit everything but count/sum.
        """
        out: Dict[str, object] = {}
        for name in sorted(self.counters):
            out[name] = self.counters[name].value
        for name in sorted(self.gauges):
            if self.gauges[name].is_set:
                out[name] = self.gauges[name].value
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            count, total, min_, max_, buckets = hist._state()
            out[f"{name}.count"] = count
            out[f"{name}.sum"] = total
            if count:
                out[f"{name}.min"] = min_
                out[f"{name}.max"] = max_
                for suffix, q in SNAPSHOT_QUANTILES:
                    out[f"{name}.{suffix}"] = _bucket_quantile(
                        hist.bounds, buckets, count, min_, max_, q
                    )
        return out

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def __bool__(self) -> bool:
        return len(self) > 0


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""


class _NullGauge:
    __slots__ = ()
    value = 0.0
    is_set = False

    def set(self, value: float) -> None:
        """No-op."""


class _NullHistogram:
    __slots__ = ()
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        """No-op."""

    def quantile(self, q: float) -> float:
        """Always 0."""
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """Disabled registry: shared no-op instruments, empty snapshot."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def merge(self, other: object) -> None:
        """No-op."""

    def snapshot(self) -> Dict[str, object]:
        """Always empty."""
        return {}

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False
