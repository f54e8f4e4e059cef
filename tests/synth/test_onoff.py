"""On/off generator tests."""

import numpy as np
import pytest
from oracles import implied_p01, implied_p11

from repro.analysis import extract_bursts, fit_transition_matrix
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES
from repro.synth.onoff import OnOffGenerator, correlated_utilization


@pytest.fixture
def web_profile():
    return APP_PROFILES["web"].downlink


class TestGenerate:
    def test_exact_length(self, web_profile, rng):
        series = OnOffGenerator(web_profile).generate(10_000, rng)
        assert len(series) == 10_000
        assert series.utilization.shape == series.hot.shape

    def test_hot_mask_consistent_with_utilization(self, web_profile, rng):
        series = OnOffGenerator(web_profile).generate(50_000, rng)
        assert np.all(series.utilization[series.hot] > 0.5)
        assert np.all(series.utilization[~series.hot] < 0.5)

    def test_hot_fraction_matches_profile(self, rng):
        profile = APP_PROFILES["hadoop"].downlink
        series = OnOffGenerator(profile).generate(2_000_000, rng)
        assert series.hot.mean() == pytest.approx(profile.hot_fraction, rel=0.15)

    def test_transition_matrix_matches_analytics(self, rng):
        profile = APP_PROFILES["hadoop"].downlink
        series = OnOffGenerator(profile).generate(2_000_000, rng)
        matrix = fit_transition_matrix(series.hot)
        assert matrix.p11 == pytest.approx(implied_p11(profile.duration), abs=0.02)
        assert matrix.p01 == pytest.approx(implied_p01(profile.gap), rel=0.2)

    def test_burst_durations_match_duration_model(self, rng):
        profile = APP_PROFILES["web"].downlink
        series = OnOffGenerator(profile).generate(2_000_000, rng)
        stats = extract_bursts(series.utilization, 25_000)
        assert stats.single_period_fraction == pytest.approx(
            profile.duration.head[0], abs=0.03
        )

    def test_zero_ticks_rejected(self, web_profile, rng):
        with pytest.raises(ConfigError):
            OnOffGenerator(web_profile).generate(0, rng)

    def test_deterministic_per_seed(self, web_profile):
        a = OnOffGenerator(web_profile).generate(5000, np.random.default_rng(9))
        b = OnOffGenerator(web_profile).generate(5000, np.random.default_rng(9))
        assert np.array_equal(a.utilization, b.utilization)


class TestMaskRuns:
    def test_runs_within_bounds(self, web_profile, rng):
        starts, lengths = OnOffGenerator(web_profile).generate_mask_runs(10_000, rng)
        assert np.all(starts >= 0)
        assert np.all(starts + lengths <= 10_000)
        assert np.all(lengths >= 1)

    @pytest.mark.parametrize("n_ticks", [0, -5])
    def test_nonpositive_ticks_rejected(self, web_profile, rng, n_ticks):
        with pytest.raises(ConfigError, match="n_ticks must be positive"):
            OnOffGenerator(web_profile).generate_mask_runs(n_ticks, rng)


class TestCorrelatedUtilization:
    def test_shapes(self, rng):
        profile = APP_PROFILES["cache"].downlink
        util, hot = correlated_utilization(4, 20_000, profile, 0.9, 0.9, rng)
        assert util.shape == (20_000, 4)
        assert hot.shape == (20_000, 4)
        assert np.all(util[hot] > 0.5)
        assert np.all(util[~hot] < 0.5)

    def test_members_correlate(self, rng):
        profile = APP_PROFILES["cache"].downlink
        util, _hot = correlated_utilization(4, 400_000, profile, 0.9, 0.9, rng)
        corr = np.corrcoef(util, rowvar=False)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert off_diag.mean() > 0.4

    def test_zero_sharing_uncorrelated(self, rng):
        profile = APP_PROFILES["cache"].downlink
        util, _hot = correlated_utilization(4, 400_000, profile, 0.0, 0.0, rng)
        corr = np.corrcoef(util, rowvar=False)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert abs(off_diag.mean()) < 0.05

    def test_single_member_keeps_full_rate(self, rng):
        profile = APP_PROFILES["cache"].downlink
        util, hot = correlated_utilization(1, 500_000, profile, 0.9, 0.9, rng)
        assert hot.mean() == pytest.approx(profile.hot_fraction, rel=0.25)

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            correlated_utilization(0, 100, APP_PROFILES["web"].downlink, 0.5, 0.5, rng)

    @pytest.mark.parametrize("n_ticks", [0, -5])
    def test_nonpositive_ticks_rejected(self, rng, n_ticks):
        profile = APP_PROFILES["cache"].downlink
        with pytest.raises(ConfigError, match="n_ticks must be positive"):
            correlated_utilization(4, n_ticks, profile, 0.9, 0.9, rng)
