"""Empirical cumulative distribution functions.

Every distribution figure in the paper (Figs 3, 4, 6, 7) is an empirical
CDF; this class provides evaluation, percentiles, and fixed-grid export
in the same format as the paper's released data (x, cdf columns).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


class EmpiricalCdf:
    """Right-continuous empirical CDF of a sample."""

    def __init__(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise AnalysisError("CDF expects a one-dimensional sample")
        if len(samples) == 0:
            raise AnalysisError("CDF of an empty sample is undefined")
        if np.any(~np.isfinite(samples)):
            raise AnalysisError("CDF sample contains non-finite values")
        self._sorted = np.sort(samples)
        self._n = len(samples)

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> np.ndarray:
        """The sorted sample (read-only view)."""
        view = self._sorted.view()
        view.flags.writeable = False
        return view

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X <= x)."""
        result = np.searchsorted(self._sorted, np.asarray(x), side="right") / self._n
        if np.isscalar(x):
            return float(result)
        return result

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile {q} outside [0, 100]")
        return float(self._percentiles(np.float64(q)))

    def _percentiles(self, q: np.ndarray) -> np.ndarray:
        """``np.percentile(self._sorted, q)`` (its default linear method),
        read off the sorted sample: two index reads and one interpolation
        per q, where ``np.percentile`` copies and partitions the sample."""
        index = (self._n - 1) * (q / 100)
        below = np.floor(index)
        gamma = index - below
        low = below.astype(np.intp)
        high = np.minimum(low + 1, self._n - 1)
        a = self._sorted[low]
        b = self._sorted[high]
        diff = b - a
        # numpy's lerp: from the nearer end, so q = 100 lands on b exactly
        return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        return self.percentile(90.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    def grid(self, n_points: int = 100) -> tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) on an even quantile grid, for plotting / export."""
        if n_points < 2:
            raise AnalysisError("grid needs at least two points")
        qs = np.linspace(0.0, 100.0, n_points)
        return self._percentiles(qs), qs / 100.0

    def ks_distance(self, other: "EmpiricalCdf") -> float:
        """Kolmogorov distance sup_x |F(x) - G(x)| between two ECDFs."""
        grid = np.union1d(self._sorted, other._sorted)
        return float(np.max(np.abs(self(grid) - other(grid))))
