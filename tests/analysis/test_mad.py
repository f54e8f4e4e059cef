"""Load-balance MAD tests (Fig 7 machinery)."""

import numpy as np
import pytest

from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.errors import AnalysisError


class TestMad:
    """MAD of one period's link vector, read through the normalised series."""

    def test_balanced_is_zero(self):
        assert normalized_mad_series(np.array([[0.3, 0.3, 0.3, 0.3]]))[0] == 0.0

    def test_known_value(self):
        # MAD 0.5 around a mean of 0.5.
        assert normalized_mad_series(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            normalized_mad_series(np.array([]))


class TestNormalizedSeries:
    def test_one_of_four_active_is_150_percent(self):
        """One link carrying everything: MAD/mean = 1.5 for 4 links."""
        util = np.array([[0.8, 0.0, 0.0, 0.0]])
        assert normalized_mad_series(util)[0] == pytest.approx(1.5)

    def test_two_of_four_is_100_percent(self):
        util = np.array([[0.4, 0.4, 0.0, 0.0]])
        assert normalized_mad_series(util)[0] == pytest.approx(1.0)

    def test_perfect_balance_is_zero(self):
        util = np.full((5, 4), 0.25)
        assert np.allclose(normalized_mad_series(util), 0.0)

    def test_idle_periods_dropped(self):
        util = np.array([[0.0, 0.0, 0.0, 0.0], [0.4, 0.4, 0.4, 0.4]])
        series = normalized_mad_series(util)
        assert len(series) == 1

    def test_scale_invariance(self):
        util = np.array([[0.8, 0.2, 0.1, 0.1]])
        assert normalized_mad_series(util)[0] == pytest.approx(
            normalized_mad_series(util / 2)[0]
        )

    def test_needs_two_links(self):
        with pytest.raises(AnalysisError):
            normalized_mad_series(np.ones((5, 1)))


class TestResample:
    def test_averages_consecutive_periods(self):
        util = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        coarse = resample_utilization(util, 4)
        assert coarse.shape == (1, 2)
        assert np.allclose(coarse, 0.5)

    def test_imbalance_vanishes_at_coarse_scale(self):
        """The Fig 7 effect: alternating hogs look balanced at 1 s."""
        rng = np.random.default_rng(0)
        n = 4000
        hog = rng.integers(0, 4, size=n)
        util = np.zeros((n, 4))
        util[np.arange(n), hog] = 0.8
        fine_mad = normalized_mad_series(util)
        coarse_mad = normalized_mad_series(resample_utilization(util, 1000))
        assert np.median(fine_mad) > 1.0
        assert np.median(coarse_mad) < 0.1

    def test_truncates_remainder(self):
        util = np.ones((10, 2))
        assert resample_utilization(util, 3).shape == (3, 2)

    def test_factor_validation(self):
        with pytest.raises(AnalysisError):
            resample_utilization(np.ones((4, 2)), 0)
        with pytest.raises(AnalysisError):
            resample_utilization(np.ones((2, 2)), 5)
