"""Gap-aware trace semantics and burst analysis under missing data."""

import numpy as np
import pytest
from oracles import split_at_gaps

from repro.analysis.bursts import (
    burst_cdf_delta_bound,
    extract_bursts_from_trace,
    extract_bursts_gap_aware,
)
from repro.core.samples import CounterTrace, ValueKind
from repro.errors import AnalysisError
from repro.units import gbps, us

INTERVAL = us(25)


def trace_from_utilization(util, keep=None, name="t"):
    """Regular-grid byte trace for a utilization series, with optional
    sample-retention mask (True = sample survives)."""
    util = np.asarray(util, dtype=np.float64)
    bytes_per_tick = np.rint(util * gbps(10) * INTERVAL / 8e9).astype(np.int64)
    values = np.concatenate(([0], np.cumsum(bytes_per_tick)))
    timestamps = INTERVAL * np.arange(len(values), dtype=np.int64)
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        timestamps, values = timestamps[keep], values[keep]
    return CounterTrace(
        timestamps_ns=timestamps,
        values=values,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=gbps(10),
    )


class TestGapSemantics:
    def test_regular_trace_has_no_gaps(self):
        trace = trace_from_utilization([0.1] * 20)
        assert not trace.missing_interval_mask().any()
        assert trace.n_missing_instants() == 0
        assert trace.coverage_fraction() == 1.0
        assert split_at_gaps(trace, trace.nominal_interval_ns()) == [trace]

    def test_single_missing_sample_is_one_gap(self):
        keep = np.ones(21, dtype=bool)
        keep[10] = False
        trace = trace_from_utilization([0.1] * 20, keep=keep)
        mask = trace.missing_interval_mask()
        assert mask.sum() == 1
        assert trace.n_missing_instants() == 1
        assert trace.coverage_fraction() == pytest.approx(19 / 20)

    def test_split_at_gaps_segments_are_contiguous(self):
        keep = np.ones(41, dtype=bool)
        keep[[10, 11, 30]] = False
        trace = trace_from_utilization([0.2] * 40, keep=keep)
        segments = split_at_gaps(trace, trace.nominal_interval_ns())
        assert len(segments) == 3
        for segment in segments:
            assert not segment.missing_interval_mask(
                trace.nominal_interval_ns()
            ).any()
        assert sum(len(s) for s in segments) == len(trace)

    def test_bad_tolerance_rejected(self):
        trace = trace_from_utilization([0.1] * 10)
        with pytest.raises(AnalysisError):
            trace.missing_interval_mask(tolerance=0.5)


class TestGapAwareBursts:
    def test_clean_trace_matches_plain_extraction(self):
        util = np.array([0.1, 0.9, 0.9, 0.1, 0.8, 0.1, 0.1, 0.9, 0.9, 0.9, 0.1])
        trace = trace_from_utilization(util)
        plain = extract_bursts_from_trace(trace)
        gap_aware = extract_bursts_gap_aware(trace)
        assert np.array_equal(gap_aware.durations_ns, plain.durations_ns)
        assert gap_aware.n_segments == 1
        assert gap_aware.n_clipped_bursts == 0
        assert gap_aware.cdf_delta_bound == 0.0
        assert gap_aware.coverage == 1.0

    def test_gap_never_fuses_bursts(self):
        """Two bursts separated only by missing cold samples must stay
        two bursts, not merge into one long one."""
        util = np.array([0.9] * 4 + [0.1] * 3 + [0.9] * 4)
        keep = np.ones(12, dtype=bool)
        keep[[5, 6]] = False  # lose the cold separator's interior samples
        trace = trace_from_utilization(util, keep=keep)
        gap_aware = extract_bursts_gap_aware(trace)
        assert gap_aware.n_segments == 2
        # No fabricated long burst: every duration is at most 4 periods.
        assert gap_aware.durations_ns.max() <= 4 * INTERVAL

    def test_bursts_touching_gaps_counted_as_clipped(self):
        util = np.array([0.9] * 5 + [0.9] * 5 + [0.1] * 4)
        keep = np.ones(15, dtype=bool)
        keep[5] = False  # gap in the middle of one long burst
        trace = trace_from_utilization(util, keep=keep)
        gap_aware = extract_bursts_gap_aware(trace)
        assert gap_aware.n_segments == 2
        # Both sides of the severed burst touch the gap.
        assert gap_aware.n_clipped_bursts == 2
        assert gap_aware.cdf_delta_bound > 0.0

    def test_burst_filling_whole_segment_counted_once(self):
        """Regression: a burst fragment that spans an *entire* segment —
        starting exactly at the split point and running to the next gap —
        used to be counted as clipped at both edges, inflating
        ``n_clipped_bursts`` (and the reported CDF bound) by one.

        One true burst over ticks 1..6, severed by gaps at ticks 2-3 and
        7-8: fragment A (tick 1) clips the first segment's right edge,
        fragment B (ticks 4-6) fills the middle segment end to end.
        That's two clipped fragments, not three.
        """
        util = np.array([0.1] + [0.9] * 6 + [0.1] * 3)
        keep = np.ones(11, dtype=bool)
        keep[[3, 8]] = False
        trace = trace_from_utilization(util, keep=keep)
        gap_aware = extract_bursts_gap_aware(trace)
        assert gap_aware.n_segments == 3
        assert sorted(gap_aware.durations_ns.tolist()) == [
            1 * INTERVAL,
            3 * INTERVAL,
        ]
        assert gap_aware.n_clipped_bursts == 2

    def test_degenerate_trace_rejected(self):
        trace = trace_from_utilization([0.1])
        lonely = CounterTrace(
            timestamps_ns=trace.timestamps_ns[:1],
            values=trace.values[:1],
            kind=ValueKind.CUMULATIVE,
            name="lonely",
            rate_bps=gbps(10),
        )
        with pytest.raises(AnalysisError):
            extract_bursts_gap_aware(lonely)


class TestBounds:
    def test_delta_bound_zero_observations(self):
        assert burst_cdf_delta_bound(0, 0) == 1.0

    def test_delta_bound_monotone_in_clipping(self):
        bounds = [burst_cdf_delta_bound(1000, c) for c in (0, 10, 50, 200)]
        assert bounds == sorted(bounds)
        assert all(0.0 < b <= 1.0 for b in bounds)

    def test_delta_bound_shrinks_with_more_bursts(self):
        assert burst_cdf_delta_bound(10_000, 0) < burst_cdf_delta_bound(100, 0)

    def test_delta_bound_bad_confidence_rejected(self):
        with pytest.raises(AnalysisError):
            burst_cdf_delta_bound(10, 1, confidence=1.0)

    def test_bound_actually_covers_induced_shift(self):
        """Empirically: random loss moves the burst CDF by less than the
        reported bound (the acceptance criterion, in miniature)."""
        from repro.analysis.cdf import EmpiricalCdf

        rng = np.random.default_rng(5)
        util = np.where(rng.random(6000) < 0.08, 0.95, 0.05)
        trace = trace_from_utilization(util)
        clean = extract_bursts_from_trace(trace)
        keep = rng.random(len(trace)) >= 0.05
        keep[[0, -1]] = True
        degraded = trace_from_utilization(util, keep=keep)
        gap_aware = extract_bursts_gap_aware(degraded)
        ks = EmpiricalCdf(clean.durations_ns.astype(float)).ks_distance(
            EmpiricalCdf(gap_aware.durations_ns.astype(float))
        )
        assert gap_aware.cdf_delta_bound > 0.0
        assert ks <= gap_aware.cdf_delta_bound
