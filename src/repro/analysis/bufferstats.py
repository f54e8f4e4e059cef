"""Shared-buffer occupancy vs. concurrent bursts (Fig 10).

Fig 10 is a boxplot of normalised peak buffer occupancy during 50 ms
windows, grouped by how many ports were hot in that window.  Fig 10's
rows read each group's median and mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.hotports import window_hot_port_counts
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class BoxStats:
    """Centre of one group's box: its median and mean."""

    median: float
    mean: float

    @staticmethod
    def from_samples(samples: np.ndarray) -> "BoxStats":
        samples = np.asarray(samples, dtype=np.float64)
        if len(samples) == 0:
            raise AnalysisError("box stats of empty group")
        return BoxStats(median=float(np.percentile(samples, 50)), mean=float(samples.mean()))


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

