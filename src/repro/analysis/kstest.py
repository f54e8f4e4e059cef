"""Kolmogorov–Smirnov test against an exponential distribution.

Sec 5.2 tests whether µburst arrivals form a homogeneous Poisson process
by KS-testing inter-arrival times against an exponential fit and obtains
a p-value "close to 0".  We implement the statistic directly (with the
rate fitted by MLE, i.e. 1/mean) and use the asymptotic Kolmogorov
distribution for the p-value; scipy's ``kstest`` is used in the test
suite as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

#: Fewest inter-arrival times :func:`exponential_ks_test` accepts.
KS_MIN_SAMPLES = 8


@dataclass(frozen=True, slots=True)
class KsResult:
    """KS statistic and p-value for the exponential null."""

    statistic: float
    p_value: float
    n: int
    fitted_rate: float

    @property
    def rejects_poisson(self) -> bool:
        """Reject at the conventional 5 % level."""
        return self.p_value < 0.05


def kolmogorov_sf(x: float, terms: int = 100) -> float:
    """Survival function of the Kolmogorov distribution.

    Q(x) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2); the series
    converges extremely fast for x > 0.3.
    """
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        term = (-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
        total += term
        if abs(term) < 1e-12:
            break
    return max(0.0, min(1.0, 2.0 * total))


def exponential_ks_test(samples: np.ndarray) -> KsResult:
    """KS test of ``samples`` against Exp(rate = 1/mean).

    Note: fitting the rate from the data makes the test conservative
    (the true null distribution is Lilliefors-corrected), so a rejection
    here is a fortiori a rejection under the corrected test — the
    direction the paper's conclusion needs.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise AnalysisError("KS test expects a 1-D sample")
    if len(samples) < KS_MIN_SAMPLES:
        raise AnalysisError(f"KS test needs at least {KS_MIN_SAMPLES} samples")
    if np.any(samples <= 0):
        raise AnalysisError("inter-arrival times must be positive")
    mean = samples.mean()
    rate = 1.0 / mean
    sorted_samples = np.sort(samples)
    n = len(samples)
    cdf = 1.0 - np.exp(-rate * sorted_samples)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    statistic = float(
        max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
    )
    p_value = kolmogorov_sf(statistic * math.sqrt(n))
    return KsResult(statistic=statistic, p_value=p_value, n=n, fitted_rate=rate)
