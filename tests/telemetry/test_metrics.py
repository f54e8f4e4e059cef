"""Metrics registry: metric semantics, snapshots, and shard merging."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    DEFAULT_NS_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    scoped_registry,
    set_enabled,
)


class TestCounter:
    def test_monotonic(self, registry):
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("a.b").inc(-1)

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_and_high_water(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(4)
        gauge.set_max(2)
        assert gauge.value == 4
        gauge.set_max(9)
        assert gauge.value == 9


class TestHistogram:
    def test_bucket_placement(self, registry):
        hist = registry.histogram("lat", bounds=(10, 100, 1000))
        for value in (5, 10, 11, 1000, 5000):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.inf_count == 1
        assert hist.count == 5
        assert hist.sum == 5 + 10 + 11 + 1000 + 5000
        assert hist.mean == pytest.approx(hist.sum / 5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", bounds=(10, 10))
        with pytest.raises(TelemetryError):
            Histogram("h", bounds=(100, 10))
        with pytest.raises(TelemetryError):
            Histogram("h", bounds=())

    def test_rebind_with_different_buckets_rejected(self, registry):
        registry.histogram("lat", bounds=(1, 2))
        with pytest.raises(TelemetryError):
            registry.histogram("lat", bounds=(1, 2, 3))

    def test_default_buckets_cover_ns_decades(self, registry):
        hist = registry.histogram("lat")
        assert hist.bounds == DEFAULT_NS_BUCKETS


class TestTypeConflicts:
    def test_counter_then_gauge(self, registry):
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")

    def test_gauge_then_histogram(self, registry):
        registry.gauge("m")
        with pytest.raises(TelemetryError):
            registry.histogram("m")


class TestSnapshotMerge:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        hist = reg.histogram("h", bounds=(10, 100))
        hist.observe(5)
        hist.observe(500)
        return reg

    def test_counters_sum(self):
        a, b = self._populated(), self._populated()
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 6

    def test_gauges_take_max(self):
        a, b = self._populated(), self._populated()
        b.gauge("g").set(11)
        a.merge_snapshot(b.snapshot())
        assert a.gauge("g").value == 11
        # lower incoming value does not pull the high-water mark down
        low = MetricsRegistry()
        low.gauge("g").set(1)
        a.merge_snapshot(low.snapshot())
        assert a.gauge("g").value == 11

    def test_histogram_buckets_sum(self):
        a, b = self._populated(), self._populated()
        a.merge_snapshot(b.snapshot())
        hist = a.histogram("h", bounds=(10, 100))
        assert hist.counts == [2, 0]
        assert hist.inf_count == 2
        assert hist.count == 4

    def test_merge_commutes(self):
        a, b = self._populated(), MetricsRegistry()
        b.counter("c").inc(10)
        b.counter("other").inc(1)
        left = MetricsRegistry()
        left.merge_snapshot(a.snapshot())
        left.merge_snapshot(b.snapshot())
        right = MetricsRegistry()
        right.merge_snapshot(b.snapshot())
        right.merge_snapshot(a.snapshot())
        assert left.snapshot() == right.snapshot()

    def test_merge_into_empty_reproduces_snapshot(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_version_mismatch_rejected(self):
        target = MetricsRegistry()
        with pytest.raises(TelemetryError):
            target.merge_snapshot({"version": 999, "counters": {}})

    def test_bucket_mismatch_rejected(self):
        source = self._populated()
        snap = source.snapshot()
        snap["histograms"]["h"]["counts"] = [1, 2, 3]
        target = MetricsRegistry()
        with pytest.raises(TelemetryError):
            target.merge_snapshot(snap)

    def test_snapshot_is_plain_sorted_data(self):
        snap = self._populated().snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert set(snap) == {"version", "counters", "gauges", "histograms"}


class TestEnableDisable:
    def test_disable_swaps_in_null_registry(self):
        try:
            set_enabled(False)
            reg = get_registry()
            assert isinstance(reg, NullRegistry)
            reg.counter("x").inc()
            reg.gauge("y").set_max(3)
            reg.histogram("z").observe(1)
            assert reg.snapshot()["counters"] == {}
            assert reg.summary_line() == "telemetry disabled"
        finally:
            set_enabled(True)

    def test_reenable_gives_fresh_registry(self):
        try:
            set_enabled(False)
            set_enabled(True)
            assert get_registry().snapshot()["counters"] == {}
        finally:
            set_enabled(True)

    def test_scoped_registry_yields_null_when_disabled(self):
        try:
            set_enabled(False)
            with scoped_registry() as reg:
                assert isinstance(reg, NullRegistry)
        finally:
            set_enabled(True)


class TestScopedRegistry:
    def test_isolates_and_restores(self):
        outer = get_registry()
        outer_counter = outer.counter("outer")
        with scoped_registry() as inner:
            assert get_registry() is inner
            inner.counter("inner").inc()
            assert "outer" not in inner.snapshot()["counters"]
        assert get_registry() is outer
        assert outer_counter.value == 0

    def test_restores_on_error(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with scoped_registry():
                raise RuntimeError("boom")
        assert get_registry() is outer


class TestSummaryLine:
    def test_headline_counters_rendered(self, registry):
        registry.counter("campaign.windows_ok").inc(10)
        registry.counter("campaign.windows_degraded").inc(2)
        registry.counter("campaign.windows_failed").inc(1)
        registry.counter("sampler.instants_missed").inc(7)
        line = registry.summary_line()
        assert line.startswith("telemetry: ")
        assert "windows ok/degraded/failed 10/2/1" in line
        assert "sampler misses 7" in line
