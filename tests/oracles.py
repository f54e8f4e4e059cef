"""Scalar reference oracles for the vectorized analysis kernels.

The analysis pipeline runs on numpy kernels (wrap-corrected deltas, gap
masks, run-length and burst extraction, ECDF construction/evaluation,
the streaming burst fold).  This module holds deliberately naive
pure-Python versions of the same computations, kept as executable
specifications.  ``tests/property/test_kernel_equivalence.py`` asserts
the kernels match them exactly — dtype and all — on arbitrary inputs, so
the fast paths can be optimized freely without silently changing
results.  ``benchmarks/bench_parallel.py`` times the kernels against them.

Production code never imports this module
(``tests/test_determinism_lint.py`` holds that line).
"""

from __future__ import annotations

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.core.streaming import StreamingBurstStats
from repro.errors import AnalysisError

# -- cumulative-counter deltas ---------------------------------------------------


def scalar_deltas(values: np.ndarray, wrap_bits: int | None = None) -> np.ndarray:
    """Reference per-interval increments with wraparound correction.

    Matches ``np.diff(values, axis=0)`` plus the ``+2**wrap_bits`` fixup
    of negative diffs, element by element.
    """
    values = np.asarray(values)
    n = len(values)
    n_out = max(n - 1, 0)
    # One subtraction fixes the output dtype to numpy's promotion rule,
    # exactly as np.diff would choose it.
    if n >= 2:
        dtype = (values[1:2] - values[0:1]).dtype
    else:
        dtype = values.dtype
    out = np.zeros((n_out,) + values.shape[1:], dtype=dtype)
    if n_out == 0:
        return out
    period = None if wrap_bits is None else dtype.type(1 << int(wrap_bits))
    flat_values = values.reshape(n, -1)
    flat_out = out.reshape(n_out, -1)
    for i in range(n_out):
        for j in range(flat_values.shape[1]):
            delta = flat_values[i + 1, j] - flat_values[i, j]
            if period is not None and delta < 0:
                delta = delta + period
            flat_out[i, j] = delta
    return out


# -- gap masks -------------------------------------------------------------------


def scalar_missing_interval_mask(
    interval_durations_ns: np.ndarray, nominal_interval_ns: int, tolerance: float
) -> np.ndarray:
    """Reference gap mask: interval longer than ``tolerance`` nominals."""
    intervals = np.asarray(interval_durations_ns)
    out = np.zeros(len(intervals), dtype=bool)
    cutoff = tolerance * nominal_interval_ns
    for i in range(len(intervals)):
        out[i] = intervals[i] > cutoff
    return out


def split_at_gaps(
    trace: CounterTrace, nominal_interval_ns: int, tolerance: float = 1.5
) -> list[CounterTrace]:
    """Contiguous sub-traces separated by missing intervals.

    A trace with no gaps comes back whole.  Segment traces are what the
    reference gap-aware extraction analyzes one by one.
    """
    mask = scalar_missing_interval_mask(
        trace.interval_durations_ns(), nominal_interval_ns, tolerance
    )
    if not mask.any():
        return [trace]
    boundaries = np.flatnonzero(mask) + 1  # first sample of each new segment
    segments: list[CounterTrace] = []
    start = 0
    for stop in [*boundaries.tolist(), len(trace)]:
        if stop - start >= 2 or (trace.kind is not ValueKind.CUMULATIVE and stop > start):
            segments.append(
                CounterTrace(
                    timestamps_ns=trace.timestamps_ns[start:stop],
                    values=trace.values[start:stop],
                    kind=trace.kind,
                    name=trace.name,
                    rate_bps=trace.rate_bps,
                    meta=dict(trace.meta),
                )
            )
        start = stop
    return segments


# -- run-length extraction -------------------------------------------------------


def scalar_run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Reference lengths of maximal runs equal to ``value``, in order."""
    mask = np.asarray(mask, dtype=bool)
    lengths: list[int] = []
    current = 0
    for bit in mask.tolist():
        if bit == value:
            current += 1
        elif current:
            lengths.append(current)
            current = 0
    if current:
        lengths.append(current)
    return np.asarray(lengths, dtype=np.int64)


def scalar_interior_run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Reference run lengths excluding runs touching either boundary."""
    mask = np.asarray(mask, dtype=bool)
    lengths = scalar_run_lengths(mask, value)
    if len(lengths) == 0:
        return lengths
    start = 1 if bool(mask[0]) == value else 0
    stop = len(lengths) - 1 if bool(mask[-1]) == value else len(lengths)
    if stop <= start:
        return np.zeros(0, dtype=np.int64)
    return lengths[start:stop]


def scalar_hot_mask(utilization: np.ndarray, threshold: float) -> np.ndarray:
    """Reference hot/not-hot classification."""
    utilization = np.asarray(utilization, dtype=np.float64)
    out = np.zeros(len(utilization), dtype=bool)
    for i in range(len(utilization)):
        out[i] = utilization[i] > threshold
    return out


# -- gap-aware burst extraction --------------------------------------------------


def count_clipped_bursts(masks: list[np.ndarray]) -> int:
    """Distinct observed bursts touching a gap-adjacent segment edge.

    A burst is clipped when it touches a side of a segment that borders
    a gap (segment interiors are exact; trace start/end are ordinary
    window boundaries, same as the clean analysis).  A burst spanning an
    *entire* segment starts exactly at one split point and ends at the
    next, but it is still one clipped burst.
    """
    n_clipped = 0
    last = len(masks) - 1
    for i, mask in enumerate(masks):
        if len(mask) == 0:
            continue
        left = i > 0 and bool(mask[0])
        right = i < last and bool(mask[-1])
        if left and right and bool(mask.all()):
            n_clipped += 1
        else:
            n_clipped += int(left) + int(right)
    return n_clipped


def gap_aware_core_segmented(
    trace: CounterTrace, nominal: int, threshold: float, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Reference gap-aware burst core: materialize segment traces and pool.

    Returns ``(durations_ns, gaps_ns, pooled_mask, n_segments,
    n_clipped)``, the fields of the production core's result in order.
    """
    segments = split_at_gaps(trace, nominal, tolerance)
    if not segments:
        raise AnalysisError(f"trace {trace.name!r} has no analyzable segment")
    masks = [scalar_hot_mask(segment.utilization(), threshold) for segment in segments]
    durations = np.concatenate([scalar_run_lengths(m, True) * nominal for m in masks])
    gaps = np.concatenate([scalar_interior_run_lengths(m, False) * nominal for m in masks])
    pooled_mask = np.concatenate(masks)
    return durations, gaps, pooled_mask, len(segments), count_clipped_bursts(masks)


# -- streaming burst statistics ----------------------------------------------------


def scalar_streaming_update(stats: StreamingBurstStats, utilization: np.ndarray) -> None:
    """Reference streaming fold: classify and count one sample at a time."""

    def close_burst() -> None:
        bucket = min(len(stats.duration_buckets) - 1, stats._current_run.bit_length() - 1)
        stats.duration_buckets[bucket] += 1
        stats.n_bursts += 1
        stats._current_run = 0

    for value in np.asarray(utilization, dtype=np.float64).tolist():
        hot = value > stats.threshold
        stats.n_samples += 1
        if hot:
            stats.n_hot += 1
            stats._current_run += 1
        elif stats._current_run:
            close_burst()
        if stats._previous_hot >= 0:
            stats.transitions[stats._previous_hot][int(hot)] += 1
        stats._previous_hot = int(hot)


# -- empirical CDF ---------------------------------------------------------------


def scalar_sorted(samples: np.ndarray) -> np.ndarray:
    """Reference CDF construction: the sorted sample."""
    samples = np.asarray(samples, dtype=np.float64)
    return np.asarray(sorted(samples.tolist()), dtype=np.float64)


def scalar_ecdf_probs(sorted_samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Reference right-continuous ECDF evaluation: P(X <= x) per query.

    Matches ``np.searchsorted(sorted, xs, side="right") / n``.
    """
    sorted_samples = np.asarray(sorted_samples, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    n = len(sorted_samples)
    values = sorted_samples.tolist()
    probs = []
    for x in xs.reshape(-1).tolist():
        count = 0
        for value in values:
            if value <= x:
                count += 1
            else:
                break
        probs.append(count / n)
    return np.asarray(probs, dtype=np.float64).reshape(xs.shape)
