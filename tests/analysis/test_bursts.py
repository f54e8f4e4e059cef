"""Burst extraction tests."""

import numpy as np
import pytest
from factories import regular_trace

from repro.analysis.bursts import (
    extract_bursts,
    extract_bursts_from_trace,
    hot_mask,
    microburst_fraction,
    time_in_bursts_fraction,
    trace_hot_mask,
)
from repro.core.samples import ValueKind
from repro.errors import AnalysisError
from repro.units import gbps, us

TICK = us(25)


class TestHotMask:
    def test_threshold_strict(self):
        util = np.array([0.5, 0.500001, 0.49, 0.9])
        assert list(hot_mask(util)) == [False, True, False, True]

    def test_custom_threshold(self):
        util = np.array([0.35, 0.45])
        assert list(hot_mask(util, threshold=0.4)) == [False, True]

    def test_bad_threshold(self):
        with pytest.raises(AnalysisError):
            hot_mask(np.array([0.1]), threshold=1.5)

    def test_2d_rejected(self):
        with pytest.raises(AnalysisError):
            hot_mask(np.zeros((2, 2)))


class TestDurationsAndGaps:
    def test_durations_in_ns(self):
        util = np.array([0, 1, 1, 0, 1, 0], dtype=float)
        assert list(extract_bursts(util, TICK).durations_ns) == [2 * TICK, TICK]

    def test_gaps_exclude_boundaries(self):
        util = np.array([0, 1, 0, 0, 1, 0], dtype=float)
        assert list(extract_bursts(util, TICK).gaps_ns) == [2 * TICK]

    def test_single_sample_burst_is_one_period(self):
        """Sec 5.1: a single hot sample is a 25 us burst."""
        util = np.array([0, 1, 0], dtype=float)
        assert list(extract_bursts(util, TICK).durations_ns) == [TICK]


class TestAggregates:
    def test_time_in_bursts(self):
        assert time_in_bursts_fraction(np.array([1, 0, 1, 1], dtype=bool)) == 0.75
        assert time_in_bursts_fraction(np.array([], dtype=bool)) == 0.0

    def test_microburst_fraction(self):
        durations = np.array([TICK, 40 * TICK, 100 * TICK])  # 25us, 1ms, 2.5ms
        assert microburst_fraction(durations) == pytest.approx(1 / 3)

    def test_extract_bursts_summary(self):
        util = np.array([0.1, 0.9, 0.9, 0.1, 0.7, 0.1, 0.1])
        stats = extract_bursts(util, TICK)
        assert stats.n_bursts == 2
        assert list(stats.durations_ns) == [2 * TICK, TICK]
        assert list(stats.gaps_ns) == [TICK]
        assert stats.hot_fraction == pytest.approx(3 / 7)
        assert stats.microburst_fraction == 1.0
        assert stats.single_period_fraction == 0.5

    def test_p90_nan_when_no_bursts(self):
        stats = extract_bursts(np.zeros(10), TICK)
        assert stats.n_bursts == 0
        assert np.isnan(stats.p90_duration_ns)
        assert np.isnan(stats.single_period_fraction)


class TestFromTrace:
    def test_trace_pipeline(self):
        # 31250 B / 25 us = 100 % on a 10 G link
        per_tick = np.array([0, 31_000, 31_000, 100, 100, 20_000, 0])
        values = np.concatenate(([0], np.cumsum(per_tick))).astype(np.int64)
        trace = regular_trace(TICK, values, ValueKind.CUMULATIVE, rate_bps=gbps(10))
        stats = extract_bursts_from_trace(trace)
        assert stats.n_bursts == 2
        assert stats.interval_ns == TICK
        mask = trace_hot_mask(trace)
        assert mask.sum() == 3

    def test_short_trace_rejected(self):
        trace = regular_trace(TICK, np.array([0]), ValueKind.CUMULATIVE, rate_bps=1e9)
        with pytest.raises(AnalysisError):
            extract_bursts_from_trace(trace)
