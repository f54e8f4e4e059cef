"""Load-balance dispersion metrics (Fig 7).

Fig 7 plots, for every sampling period, the mean absolute deviation
(MAD) of the four uplinks' utilization, normalised so that 0 means
perfectly balanced and ~100 % means traffic concentrated on half the
links.  We normalise by the across-uplink mean of the period, which makes
the metric scale-free: a period where one of four links carries
everything scores 150 %, two of four score 100 %.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


def normalized_mad_series(
    utilization_by_link: np.ndarray,
    min_mean: float = 1e-4,
) -> np.ndarray:
    """Per-period normalised MAD across links.

    Parameters
    ----------
    utilization_by_link:
        Array of shape (n_periods, n_links): per-period utilization of
        each uplink.
    min_mean:
        Periods whose mean utilization is below this are dropped — the
        deviation of an idle period is noise, not imbalance.

    Returns
    -------
    1-D array of MAD / mean per retained period (1.0 == 100 % deviation).
    """
    util = np.asarray(utilization_by_link, dtype=np.float64)
    if util.ndim != 2 or util.shape[1] < 2:
        raise AnalysisError("need (n_periods, n_links>=2) utilization")
    means = util.mean(axis=1)
    keep = means > min_mean
    util = util[keep]
    means = means[keep]
    if len(util) == 0:
        return np.zeros(0)
    mad = np.mean(np.abs(util - means[:, None]), axis=1)
    return mad / means


def resample_utilization(
    utilization_by_link: np.ndarray, factor: int
) -> np.ndarray:
    """Average fine-grained per-link utilization into coarser periods.

    Used to compare the 40 µs and 1 s views of the same measurement: the
    1 s series is the mean of 25 000 consecutive 40 µs samples, exactly
    what a coarse poller would have reported.
    """
    util = np.asarray(utilization_by_link, dtype=np.float64)
    if util.ndim != 2:
        raise AnalysisError("expected (n_periods, n_links)")
    if factor <= 0:
        raise AnalysisError("factor must be positive")
    n = (util.shape[0] // factor) * factor
    if n == 0:
        raise AnalysisError(f"fewer than {factor} periods to resample")
    trimmed = util[:n]
    return trimmed.reshape(n // factor, factor, util.shape[1]).mean(axis=1)
