"""Tests for the metrics registry: instruments, merge, snapshot."""

import pytest

from repro.errors import ReproError
from repro.observability import MetricsRegistry, NullMetricsRegistry


class TestInstruments:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.counter("pwlr.fits").inc()
        reg.counter("pwlr.fits").inc(4)
        assert reg.counter("pwlr.fits").value == 5

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("eps")
        assert not gauge.is_set
        gauge.set(0.3)
        gauge.set(0.7)
        assert gauge.value == 0.7
        assert gauge.is_set

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.total == pytest.approx(55.5)
        assert hist.min == 0.5
        assert hist.max == 50.0
        assert hist.mean == pytest.approx(18.5)

    def test_histogram_rejects_unsorted_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("bad", bounds=(2.0, 1.0))


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("folds").inc(3)
        b.counter("folds").inc(4)
        b.counter("only_b").inc()
        a.merge(b)
        assert a.counter("folds").value == 7
        assert a.counter("only_b").value == 1
        # merge must not mutate the source
        assert b.counter("folds").value == 4

    def test_gauges_last_write_wins_only_when_set(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("eps").set(0.1)
        b.gauge("eps")  # touched but never set
        a.merge(b)
        assert a.gauge("eps").value == 0.1
        b.gauge("eps").set(0.9)
        a.merge(b)
        assert a.gauge("eps").value == 0.9

    def test_histograms_add_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", bounds=(1.0,)).observe(0.5)
        b.histogram("lat", bounds=(1.0,)).observe(2.0)
        a.merge(b)
        merged = a.histogram("lat")
        assert merged.count == 2
        assert merged.bucket_counts == [1, 1]
        assert merged.min == 0.5
        assert merged.max == 2.0

    def test_histogram_merge_rejects_incompatible_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", bounds=(1.0,))
        b.histogram("lat", bounds=(2.0,))
        with pytest.raises(ReproError):
            a.merge(b)


class TestSnapshot:
    def test_flat_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.counter("a.count").inc(1)
        reg.gauge("set_gauge").set(3.5)
        reg.gauge("unset_gauge")
        reg.histogram("lat", bounds=(1.0,)).observe(0.25)
        snap = reg.snapshot()
        assert "unset_gauge" not in snap
        assert snap["a.count"] == 1
        assert snap["b.count"] == 2
        assert snap["set_gauge"] == 3.5
        assert snap["lat.count"] == 1
        assert snap["lat.sum"] == 0.25
        assert snap["lat.min"] == 0.25
        assert snap["lat.max"] == 0.25

    def test_empty_histogram_omits_min_max(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        snap = reg.snapshot()
        assert snap["lat.count"] == 0
        assert "lat.min" not in snap

    def test_len_and_truthiness(self):
        reg = MetricsRegistry()
        assert not reg
        reg.counter("x")
        assert reg
        assert len(reg) == 1


class TestHistogramQuantile:
    """Bucketed quantiles interpolate inside the bucket, within [min, max]."""

    FITS = (0.38, 0.52, 0.61, 0.77, 1.05, 1.29)  # seconds, default buckets

    def _fits(self):
        reg = MetricsRegistry()
        hist = reg.histogram("fit_s")
        for v in self.FITS:
            hist.observe(v)
        return reg, hist

    def test_p50_is_not_the_bucket_bound(self):
        # Regression: six fits between 0.38 s and 1.29 s used to report
        # p50 = 1 (the upper bound of the (0.1, 1] bucket).
        _reg, hist = self._fits()
        # rank 3 of 4 in (0.1, 1] clamped to [0.38, 1.0]: 0.38 + 0.62 * 3/4
        assert hist.quantile(0.5) == pytest.approx(0.845)
        assert min(self.FITS) < hist.quantile(0.5) < 1.0
        # rank 5.7 falls in the (1, 10] bucket clamped to [1.0, 1.29]
        assert hist.quantile(0.95) == pytest.approx(1.0 + 0.29 * 1.7 / 2)

    def test_extremes_and_monotone(self):
        _reg, hist = self._fits()
        assert hist.quantile(0.0) == min(self.FITS)
        assert hist.quantile(1.0) == max(self.FITS)
        qs = [hist.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)
        assert all(min(self.FITS) <= v <= max(self.FITS) for v in qs)

    def test_single_observation_and_empty(self):
        reg = MetricsRegistry()
        hist = reg.histogram("one")
        assert hist.quantile(0.5) == 0.0
        hist.observe(0.3)
        assert hist.quantile(0.5) == 0.3
        assert hist.quantile(0.99) == 0.3

    def test_snapshot_uses_interpolated_quantiles(self):
        reg, hist = self._fits()
        snap = reg.snapshot()
        assert snap["fit_s.p50"] == hist.quantile(0.5)
        assert snap["fit_s.p99"] <= max(self.FITS)

    def test_openmetrics_still_valid(self):
        from repro.observability import render_openmetrics, validate_openmetrics

        reg, _hist = self._fits()
        families = validate_openmetrics(render_openmetrics(reg))
        assert any("fit_s" in name for name in families)


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")
        reg.counter("a").inc(100)
        assert reg.counter("a").value == 0
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        assert reg.snapshot() == {}
        assert not reg
        assert len(reg) == 0

    def test_merge_is_noop(self):
        null = NullMetricsRegistry()
        real = MetricsRegistry()
        real.counter("x").inc()
        null.merge(real)
        assert null.snapshot() == {}
