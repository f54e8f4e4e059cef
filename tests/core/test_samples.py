"""CounterTrace tests."""

import numpy as np
import pytest

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import AnalysisError
from repro.units import gbps, seconds, us


def byte_trace(values, interval=us(25), rate=gbps(10)):
    return CounterTrace.regular(
        interval_ns=interval,
        values=np.asarray(values, dtype=np.int64),
        kind=ValueKind.CUMULATIVE,
        name="t",
        rate_bps=rate,
    )


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            CounterTrace(
                timestamps_ns=np.array([0, 1]),
                values=np.array([0]),
                kind=ValueKind.CUMULATIVE,
            )

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(AnalysisError):
            CounterTrace(
                timestamps_ns=np.array([0, 5, 5]),
                values=np.array([0, 1, 2]),
                kind=ValueKind.CUMULATIVE,
            )

    def test_regular_grid(self):
        trace = byte_trace([0, 100, 200])
        assert list(trace.timestamps_ns) == [0, 25_000, 50_000]
        assert trace.duration_ns == 50_000
        assert len(trace) == 3
        assert trace.n_intervals == 2


class TestDerived:
    def test_deltas(self):
        trace = byte_trace([0, 100, 250, 250])
        assert list(trace.deltas()) == [100, 150, 0]

    def test_backwards_counter_rejected(self):
        trace = byte_trace([0, 100, 50])
        with pytest.raises(AnalysisError):
            trace.deltas()

    def test_rates_and_utilization(self):
        # 31250 bytes in 25 us at 10 Gbps = 100 % utilization
        trace = byte_trace([0, 31250, 31250])
        util = trace.utilization()
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(0.0)

    def test_utilization_needs_rate(self):
        trace = CounterTrace.regular(us(25), np.array([0, 10]), ValueKind.CUMULATIVE)
        with pytest.raises(AnalysisError):
            trace.utilization()

    def test_utilization_with_missed_sample(self):
        """A missed interval (double-length gap) still yields correct
        throughput: Table 1's 'correct timestamp' property."""
        trace = CounterTrace(
            timestamps_ns=np.array([0, 25_000, 75_000]),  # one miss
            values=np.array([0, 31250, 31250 * 3]),
            kind=ValueKind.CUMULATIVE,
            rate_bps=gbps(10),
        )
        util = trace.utilization()
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(1.0)  # 62500 bytes over 50 us

    def test_gauge_semantics(self):
        gauge = CounterTrace.regular(
            us(50), np.array([5, 7, 3]), ValueKind.GAUGE, name="buf"
        )
        assert list(gauge.gauge_values()) == [5, 7, 3]
        assert gauge.n_intervals == 3
        with pytest.raises(AnalysisError):
            gauge.deltas()

    def test_histogram_deltas_2d(self):
        values = np.array([[0, 0], [2, 1], [5, 1]])
        trace = CounterTrace.regular(us(25), values, ValueKind.CUMULATIVE)
        deltas = trace.deltas()
        assert deltas.shape == (2, 2)
        assert list(deltas[0]) == [2, 1]


class TestSliceDecimate:
    def test_slice_time(self):
        trace = byte_trace(range(10))
        window = trace.slice_time(us(50), us(125))
        assert len(window) == 3
        assert window.timestamps_ns[0] == us(50)

    def test_decimate_preserves_cumulative_totals(self):
        trace = byte_trace([0, 10, 30, 60, 100, 150, 210, 280, 360])
        coarse = trace.decimate(4)
        assert list(coarse.values) == [0, 100, 360]
        assert coarse.deltas().sum() == trace.deltas().sum()

    def test_decimate_validates_factor(self):
        with pytest.raises(AnalysisError):
            byte_trace([0, 1]).decimate(0)

    def test_burst_invisible_at_coarse_granularity(self):
        """The paper's core point: a 100 % µburst vanishes in a long bin."""
        per_tick = np.zeros(40_000, dtype=np.int64)
        per_tick[100:104] = 31_250  # 100 us at line rate
        trace = byte_trace(np.concatenate(([0], np.cumsum(per_tick))))
        assert trace.utilization().max() == pytest.approx(1.0, rel=1e-3)
        coarse = trace.decimate(seconds(1) // us(25))  # a 1 s poller
        assert coarse.utilization().max() < 0.001
