"""Cross-port hot-sample statistics (Fig 9 directionality, Fig 10 input).

Fig 9 asks: of all (port, period) samples that are hot, what share are
uplinks vs. downlinks?  Fig 10 needs, per coarse window, how many ports
were simultaneously hot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bursts import HOT_THRESHOLD
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class DirectionShare:
    """Fig 9's quantity: relative frequency of hot uplink/downlink samples."""

    uplink_hot: int
    downlink_hot: int

    @property
    def total_hot(self) -> int:
        return self.uplink_hot + self.downlink_hot

    @property
    def uplink_share(self) -> float:
        if self.total_hot == 0:
            return float("nan")
        return self.uplink_hot / self.total_hot


def hot_share_by_direction(
    uplink_util: np.ndarray,
    downlink_util: np.ndarray,
    threshold: float = HOT_THRESHOLD,
) -> DirectionShare:
    """Count hot samples on each side of the switch.

    Both arguments are (n_periods, n_ports) utilization arrays for the
    same periods.
    """
    up = np.asarray(uplink_util, dtype=np.float64)
    down = np.asarray(downlink_util, dtype=np.float64)
    if up.ndim != 2 or down.ndim != 2:
        raise AnalysisError("expected (n_periods, n_ports) arrays")
    if up.shape[0] != down.shape[0]:
        raise AnalysisError("uplink/downlink period counts differ")
    return DirectionShare(
        uplink_hot=int((up > threshold).sum()),
        downlink_hot=int((down > threshold).sum()),
    )


def hot_port_counts(
    utilization_by_port: np.ndarray,
    threshold: float = HOT_THRESHOLD,
) -> np.ndarray:
    """Number of simultaneously hot ports in each period."""
    util = np.asarray(utilization_by_port, dtype=np.float64)
    if util.ndim != 2:
        raise AnalysisError("expected (n_periods, n_ports)")
    return (util > threshold).sum(axis=1)


def max_simultaneous_hot_fraction(
    utilization_by_port: np.ndarray, threshold: float = HOT_THRESHOLD
) -> float:
    """Largest observed fraction of ports hot at once (Sec 6.4: Hadoop
    reaches 100 %, Web 71 %, Cache 64 %)."""
    util = np.asarray(utilization_by_port, dtype=np.float64)
    if util.ndim != 2 or util.shape[1] == 0:
        raise AnalysisError("expected non-empty (n_periods, n_ports)")
    counts = hot_port_counts(util, threshold)
    if len(counts) == 0:
        return 0.0
    return float(counts.max() / util.shape[1])


def window_hot_port_counts(
    utilization_by_port: np.ndarray,
    periods_per_window: int,
    threshold: float = HOT_THRESHOLD,
) -> np.ndarray:
    """Per-window count of ports that were hot at any point in the window.

    Fig 10 groups 50 ms windows by "the number of hot ports during that
    same span", with hotness judged at the 300 µs sampling granularity.
    """
    util = np.asarray(utilization_by_port, dtype=np.float64)
    if util.ndim != 2:
        raise AnalysisError("expected (n_periods, n_ports)")
    if periods_per_window <= 0:
        raise AnalysisError("periods_per_window must be positive")
    n = (util.shape[0] // periods_per_window) * periods_per_window
    if n == 0:
        raise AnalysisError("fewer periods than one window")
    hot = util[:n] > threshold
    windows = hot.reshape(n // periods_per_window, periods_per_window, util.shape[1])
    return windows.any(axis=1).sum(axis=1)
