"""Collector service tests."""

import pytest

from repro.core import CollectorService
from repro.core.counters import CounterKind, CounterSpec
from repro.core.samples import ValueKind
from repro.errors import ConfigError, CounterError
from repro.telemetry.metrics import scoped_registry


@pytest.fixture
def collector():
    service = CollectorService(batch_size=4)
    service.register(CounterSpec("bytes", CounterKind.BYTE, rate_bps=10e9))
    service.register(CounterSpec("buf", CounterKind.PEAK_BUFFER))
    return service


class TestRecording:
    def test_finalize_builds_traces(self, collector):
        for i in range(5):
            collector.record("bytes", i * 1000, i * 100)
        traces = collector.finalize()
        trace = traces["bytes"]
        assert len(trace) == 5
        assert trace.kind is ValueKind.CUMULATIVE
        assert trace.rate_bps == 10e9
        assert list(trace.values) == [0, 100, 200, 300, 400]

    def test_gauge_trace_kind(self, collector):
        collector.record("buf", 0, 123)
        collector.record("buf", 1000, 456)
        traces = collector.finalize()
        assert traces["buf"].kind is ValueKind.GAUGE

    def test_histogram_values_tuple(self):
        service = CollectorService()
        service.register(CounterSpec("hist", CounterKind.PACKET_SIZE_HIST))
        service.record("hist", 0, (1, 2, 3))
        service.record("hist", 1000, (2, 3, 4))
        trace = service.finalize()["hist"]
        assert trace.values.shape == (2, 3)

    def test_unregistered_counter_rejected(self, collector):
        with pytest.raises(CounterError):
            collector.record("nope", 0, 1)

    def test_duplicate_registration_rejected(self, collector):
        with pytest.raises(CounterError):
            collector.register(CounterSpec("bytes", CounterKind.BYTE))

    def test_sample_count(self, collector):
        collector.record("bytes", 0, 0)
        traces = collector.finalize()
        assert len(traces["bytes"]) == 1
        assert len(traces["buf"]) == 0


@pytest.fixture
def registry():
    with scoped_registry() as reg:
        yield reg


def shipped(registry, name):
    return registry.snapshot()["counters"].get(f"collector.{name}", 0)


class TestBatching:
    def test_batches_ship_at_threshold(self, collector, registry):
        for i in range(7):
            collector.record("bytes", i, i)
        assert shipped(registry, "batches_shipped") == 1  # one full batch of 4
        collector.finalize()
        assert shipped(registry, "batches_shipped") == 2  # remainder flushed

    def test_bytes_shipped_accounting(self, collector, registry):
        for i in range(4):
            collector.record("bytes", i, i)
        assert shipped(registry, "bytes_shipped") == 4 * 16

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            CollectorService(batch_size=0)


class TestBoundedQueue:
    """The collector has no queue bound, so its traces carry no drop
    marker; sample loss is marked by the fault injector."""

    def test_clean_trace_has_no_drop_marker(self, collector):
        collector.record("bytes", 0, 0)
        trace = collector.finalize()["bytes"]
        assert "samples_dropped" not in trace.meta
