"""Burst extraction.

Following Sec 5.1: an egress link is *hot* during a sampling period when
its utilization exceeds 50 %; an unbroken sequence of hot samples is a
burst; a µburst is a burst shorter than 1 ms.  Durations are measured in
sampling periods times the sampling interval, so a single hot sample at
25 µs granularity is a 25 µs burst.

Every extractor here is a few lines over one run-extraction core,
:func:`_burst_runs`, so the clean and the gap-aware analyses cannot
drift apart: on a trace without gaps they are the same computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.runs import run_bounds
from repro.core.samples import CounterTrace
from repro.errors import AnalysisError
from repro.units import ms

#: Sec 5.1's hot threshold: utilization above 50 % of line rate.
HOT_THRESHOLD = 0.5

#: Sec 1 / Sec 3: a µburst is high utilization lasting under 1 ms.
MICROBURST_LIMIT_NS = ms(1)


def check_burst_params(interval_ns: int, threshold: float = HOT_THRESHOLD) -> None:
    """The parameter checks every burst extractor applies."""
    if interval_ns <= 0:
        raise AnalysisError("interval must be positive")
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold {threshold} outside (0, 1)")


def hot_mask(utilization: np.ndarray, threshold: float = HOT_THRESHOLD) -> np.ndarray:
    """Boolean hot/not-hot classification of per-interval utilization."""
    utilization = np.asarray(utilization, dtype=np.float64)
    if utilization.ndim != 1:
        raise AnalysisError("hot_mask expects a 1-D utilization series")
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold {threshold} outside (0, 1)")
    return utilization > threshold


def trace_hot_mask(trace: CounterTrace, threshold: float = HOT_THRESHOLD) -> np.ndarray:
    """Hot mask straight from a byte-counter trace."""
    return hot_mask(trace.utilization(), threshold)


def time_in_bursts_fraction(mask: np.ndarray) -> float:
    """Fraction of sampling periods spent hot (Sec 5.4's ~15 % for Hadoop)."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) == 0:
        return 0.0
    return float(mask.mean())


def microburst_fraction(durations_ns: np.ndarray) -> float:
    """Fraction of bursts that are µbursts (< 1 ms)."""
    durations_ns = np.asarray(durations_ns)
    if len(durations_ns) == 0:
        return 0.0
    return float((durations_ns < MICROBURST_LIMIT_NS).mean())


@dataclass(frozen=True, slots=True)
class BurstStats:
    """Summary of burst behaviour for one trace (one port, one window)."""

    n_bursts: int
    interval_ns: int
    durations_ns: np.ndarray
    gaps_ns: np.ndarray
    hot_fraction: float
    microburst_fraction: float

    @property
    def p90_duration_ns(self) -> float:
        if len(self.durations_ns) == 0:
            return float("nan")
        return float(np.percentile(self.durations_ns, 90))

    @property
    def single_period_fraction(self) -> float:
        """Share of bursts lasting exactly one sampling period (Sec 5.1:
        over 60 % for Web and Cache at 25 µs)."""
        if len(self.durations_ns) == 0:
            return float("nan")
        return float((self.durations_ns == self.interval_ns).mean())


class _BurstRuns(NamedTuple):
    """What the burst core extracts from one series."""

    durations_ns: np.ndarray
    gaps_ns: np.ndarray
    pooled_mask: np.ndarray  # hot mask of the observed intervals only
    n_segments: int
    n_clipped: int  # observed bursts touching a gap


def _burst_runs(
    hot: np.ndarray, interval_ns: int, observed: np.ndarray | None = None
) -> _BurstRuns:
    """The one burst core: run-length arithmetic on a hot mask.

    ``observed`` (default: every interval) marks the intervals the
    sampler actually saw.  Unobserved intervals split the series into
    segments: they are forced cold, so no burst crosses one, and a cold
    run bordering one is not an inter-burst gap.  The result equals
    extracting every segment on its own and pooling in order, without
    materializing a segment.
    """
    starts, stops = run_bounds(hot if observed is None else hot & observed)
    durations = (stops - starts).astype(np.int64) * interval_ns
    # Inter-burst gaps: the cold stretches between consecutive bursts
    # (a cold run at a window edge has a burst on one side only), minus
    # any stretch that holds an unobserved interval.
    gaps = (starts[1:] - stops[:-1]).astype(np.int64) * interval_ns
    if observed is None:
        return _BurstRuns(durations, gaps, hot, 1, 0)
    unobserved = np.concatenate(([0], np.cumsum(~observed, dtype=np.int64)))
    gaps = gaps[unobserved[starts[1:]] == unobserved[stops[:-1]]]
    # A burst is clipped when it touches a segment edge that borders a
    # gap.  A segment that is hot end to end holds one burst touching
    # both such edges; it counts once.
    seg_starts, seg_stops = run_bounds(observed)
    k = len(seg_starts)
    order = np.arange(k)
    left = (order > 0) & hot[seg_starts]
    right = (order < k - 1) & hot[seg_stops - 1]
    hot_csum = np.concatenate(([0], np.cumsum(hot, dtype=np.int64)))
    whole = (hot_csum[seg_stops] - hot_csum[seg_starts]) == (seg_stops - seg_starts)
    n_clipped = int((left | right).sum()) + int((left & right & ~whole).sum())
    return _BurstRuns(durations, gaps, hot[observed], k, n_clipped)


def _summarize(runs: _BurstRuns, interval_ns: int) -> BurstStats:
    return BurstStats(
        n_bursts=len(runs.durations_ns),
        interval_ns=interval_ns,
        durations_ns=runs.durations_ns,
        gaps_ns=runs.gaps_ns,
        hot_fraction=time_in_bursts_fraction(runs.pooled_mask),
        microburst_fraction=microburst_fraction(runs.durations_ns),
    )


def extract_bursts(
    utilization: np.ndarray,
    interval_ns: int,
    threshold: float = HOT_THRESHOLD,
) -> BurstStats:
    """Full burst summary of one utilization series."""
    check_burst_params(interval_ns, threshold)
    return _summarize(_burst_runs(hot_mask(utilization, threshold), interval_ns), interval_ns)


def extract_bursts_from_trace(
    trace: CounterTrace, threshold: float = HOT_THRESHOLD
) -> BurstStats:
    """Burst summary straight from a byte-counter trace.

    Uses the trace's nominal (median) sampling interval; traces with
    misses have slightly longer intervals for the missed spans, which the
    per-interval utilization computation already accounts for.
    """
    nominal = trace.nominal_interval_ns()
    return extract_bursts(trace.utilization(), nominal, threshold)


@dataclass(frozen=True, slots=True)
class GapAwareBurstStats:
    """Burst summary of a trace with missing intervals, plus an honest
    account of how much the gaps can have moved the statistics."""

    stats: BurstStats
    n_segments: int
    n_missing_instants: int
    n_clipped_bursts: int
    coverage: float
    cdf_delta_bound: float

    @property
    def durations_ns(self) -> np.ndarray:
        return self.stats.durations_ns


def burst_cdf_delta_bound(
    n_observed_bursts: int, n_clipped_bursts: int, confidence: float = 0.99
) -> float:
    """Bound on the sup-norm shift of the observed burst-duration CDF
    relative to the full (unobserved) trace.

    Two effects move the CDF.  Bursts *clipped* by a gap are counted
    exactly (``n_clipped_bursts``, observable): each contributes at most
    one mismatched entry on each side of the comparison.  Bursts hidden
    entirely inside gaps are, for loss that is independent of utilization
    (export loss, say), a uniform random subsample of the true burst
    population — their effect is sampling noise, covered
    by the Dvoretzky–Kiefer–Wolfowitz term at the given confidence.
    """
    if n_observed_bursts <= 0:
        return 1.0
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence {confidence} outside (0, 1)")
    clip_term = 2.0 * n_clipped_bursts / n_observed_bursts
    dkw_term = float(np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * n_observed_bursts)))
    return min(1.0, clip_term + dkw_term)


def extract_bursts_gap_aware(
    trace: CounterTrace,
    threshold: float = HOT_THRESHOLD,
    tolerance: float = 1.5,
) -> GapAwareBurstStats:
    """Burst summary of a trace that may have missing intervals.

    The trace is split into contiguous segments at every gap (an interval
    longer than ``tolerance`` nominal periods), and bursts are extracted
    per segment — a gap can therefore never fuse two bursts, fabricate a
    long one across missing data, or invent inter-burst gaps.  The
    returned ``cdf_delta_bound`` (see :func:`burst_cdf_delta_bound`)
    bounds the shift of the burst-duration CDF relative to the unobserved
    full trace, so degraded figures come with an explicit error bar
    instead of a silent bias.
    """
    nominal = trace.nominal_interval_ns()
    observed = ~trace.missing_interval_mask(nominal, tolerance)
    if not observed.any():
        raise AnalysisError(f"trace {trace.name!r} has no analyzable segment")
    runs = _burst_runs(hot_mask(trace.utilization(), threshold), nominal, observed)
    n_missing = trace.n_missing_instants(nominal)
    bound = 0.0
    if n_missing > 0 or runs.n_segments > 1:
        bound = burst_cdf_delta_bound(len(runs.durations_ns), runs.n_clipped)
    return GapAwareBurstStats(
        stats=_summarize(runs, nominal),
        n_segments=runs.n_segments,
        n_missing_instants=n_missing,
        n_clipped_bursts=runs.n_clipped,
        coverage=trace.coverage_fraction(nominal),
        cdf_delta_bound=bound,
    )
