"""Shared-buffer occupancy vs. concurrent bursts (Fig 10).

Fig 10 is a boxplot of normalised peak buffer occupancy during 50 ms
windows, grouped by how many ports were hot in that window.  We compute
the box statistics (quartiles + whiskers) per hot-port count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.hotports import window_hot_port_counts
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class BoxStats:
    """Matplotlib-style box statistics for one group."""

    n: int
    whisker_low: float
    q1: float
    median: float
    q3: float
    whisker_high: float
    mean: float

    @staticmethod
    def from_samples(samples: np.ndarray) -> "BoxStats":
        samples = np.asarray(samples, dtype=np.float64)
        if len(samples) == 0:
            raise AnalysisError("box stats of empty group")
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        iqr = q3 - q1
        in_low = samples[samples >= q1 - 1.5 * iqr]
        in_high = samples[samples <= q3 + 1.5 * iqr]
        return BoxStats(
            n=len(samples),
            whisker_low=float(in_low.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            whisker_high=float(in_high.max()),
            mean=float(samples.mean()),
        )


def occupancy_by_hot_ports(
    peak_occupancy_per_window: np.ndarray,
    utilization_by_port: np.ndarray,
    periods_per_window: int,
    normalize_to: float | None = None,
    threshold: float = 0.5,
) -> dict[int, BoxStats]:
    """Group per-window peak occupancy by the window's hot-port count.

    Parameters
    ----------
    peak_occupancy_per_window:
        Peak shared-buffer occupancy observed in each window (bytes, or
        already normalised).
    utilization_by_port:
        Fine-grained (n_periods, n_ports) utilization aligned so that
        ``periods_per_window`` consecutive periods form one window.
    normalize_to:
        When given, occupancies are divided by this value first — the
        paper normalises "to the maximum value we observed in any of our
        data sets".
    """
    peaks = np.asarray(peak_occupancy_per_window, dtype=np.float64)
    counts = window_hot_port_counts(
        utilization_by_port, periods_per_window, threshold=threshold
    )
    if len(peaks) < len(counts):
        counts = counts[: len(peaks)]
    elif len(peaks) > len(counts):
        peaks = peaks[: len(counts)]
    if len(peaks) == 0:
        raise AnalysisError("no complete windows")
    if normalize_to is not None:
        if normalize_to <= 0:
            raise AnalysisError("normalize_to must be positive")
        peaks = peaks / normalize_to
    result: dict[int, BoxStats] = {}
    for count in np.unique(counts):
        group = peaks[counts == count]
        result[int(count)] = BoxStats.from_samples(group)
    return result

