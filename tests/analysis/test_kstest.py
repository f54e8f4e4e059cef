"""KS-test tests, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.stats

from repro.analysis.kstest import exponential_ks_test, kolmogorov_sf
from repro.errors import AnalysisError


class TestKolmogorovSf:
    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-12

    def test_matches_scipy(self):
        for x in (0.5, 0.8, 1.0, 1.36, 2.0):
            assert kolmogorov_sf(x) == pytest.approx(
                scipy.stats.kstwobign.sf(x), abs=1e-6
            )


class TestExponentialKs:
    def test_exponential_data_not_rejected(self):
        rng = np.random.default_rng(0)
        result = exponential_ks_test(rng.exponential(2.0, 400))
        assert result.p_value > 0.05

    def test_heavy_tailed_data_rejected(self):
        """The paper's Fig 4 conclusion: lognormal-ish gaps are not
        exponential, p-value ~ 0."""
        rng = np.random.default_rng(1)
        result = exponential_ks_test(rng.lognormal(0, 2.0, 2000))
        assert result.p_value < 1e-6

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(2)
        samples = rng.lognormal(0, 1.5, 500)
        ours = exponential_ks_test(samples)
        rate = 1.0 / samples.mean()
        theirs = scipy.stats.kstest(samples, "expon", args=(0, 1.0 / rate))
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=0.02)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            exponential_ks_test(np.array([1.0, 2.0]))  # too few
        with pytest.raises(AnalysisError):
            exponential_ks_test(np.array([1.0] * 7 + [-1.0]))  # non-positive
        with pytest.raises(AnalysisError):
            exponential_ks_test(np.ones((4, 4)))
