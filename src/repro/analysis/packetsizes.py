"""Packet-size regimes inside and outside bursts (Fig 5, Sec 5.3).

The size-histogram counter is polled alongside the byte counter; each
sampling period is classified hot or not from the byte counter, and the
per-period histogram increments are accumulated into an inside-burst and
an outside-burst histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bursts import HOT_THRESHOLD, hot_mask
from repro.core.samples import CounterTrace
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class SizeHistogramSplit:
    """Normalised packet-size histograms for the two regimes."""

    inside: np.ndarray
    outside: np.ndarray
    n_hot_periods: int

    @property
    def large_fraction_inside(self) -> float:
        """Share of packets in the largest bin during bursts."""
        return float(self.inside[-1])

    @property
    def large_fraction_outside(self) -> float:
        return float(self.outside[-1])

    @property
    def large_packet_increase(self) -> float:
        """Relative increase of largest-bin share inside bursts, e.g.
        +0.2 means 20 % more large packets (the paper's Cache number)."""
        if self.large_fraction_outside == 0.0:
            return float("inf") if self.large_fraction_inside > 0 else 0.0
        return self.large_fraction_inside / self.large_fraction_outside - 1.0


def split_histogram_by_burst(
    byte_trace: CounterTrace,
    hist_trace: CounterTrace,
    threshold: float = HOT_THRESHOLD,
) -> SizeHistogramSplit:
    """Split histogram increments by the hotness of each period.

    Both traces must come from the same measurement campaign (identical
    timestamps): the paper polls them together for exactly this reason.
    """
    if len(byte_trace) != len(hist_trace) or not np.array_equal(
        byte_trace.timestamps_ns, hist_trace.timestamps_ns
    ):
        raise AnalysisError("byte and histogram traces must share timestamps")
    util = byte_trace.utilization()
    hist_deltas = hist_trace.deltas()
    if hist_deltas.ndim != 2:
        raise AnalysisError("histogram trace must be 2-D (periods x bins)")
    mask = hot_mask(util, threshold)
    inside_counts = hist_deltas[mask].sum(axis=0).astype(np.float64)
    outside_counts = hist_deltas[~mask].sum(axis=0).astype(np.float64)

    def _normalise(counts: np.ndarray) -> np.ndarray:
        total = counts.sum()
        if total == 0:
            return np.zeros_like(counts)
        return counts / total

    return SizeHistogramSplit(
        inside=_normalise(inside_counts),
        outside=_normalise(outside_counts),
        n_hot_periods=int(mask.sum()),
    )
