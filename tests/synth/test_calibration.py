"""Calibration model tests: every profile must match its paper targets."""

import numpy as np
import pytest

from repro.data.published import PAPER
from repro.errors import ConfigError
from repro.synth.calibration import (
    APP_PROFILES,
    ColdUtilModel,
    DurationModel,
    GapModel,
    IntensityModel,
)


class TestDurationModel:
    def test_mean_matches_samples(self, rng):
        model = DurationModel(head=(0.6, 0.2), tail_decay=0.5)
        samples = model.sample(rng, 200_000)
        assert samples.mean() == pytest.approx(model.mean(), rel=0.02)
        assert samples.min() >= 1

    def test_head_pmf_respected(self, rng):
        model = DurationModel(head=(0.7, 0.2), tail_decay=0.5)
        samples = model.sample(rng, 100_000)
        assert (samples == 1).mean() == pytest.approx(0.7, abs=0.01)
        assert (samples == 2).mean() == pytest.approx(0.2, abs=0.01)

    def test_implied_p11(self):
        model = DurationModel(head=(0.345,), tail_decay=0.655)
        assert model.implied_p11 == pytest.approx(0.655, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DurationModel(head=(), tail_decay=0.5)
        with pytest.raises(ConfigError):
            DurationModel(head=(0.7, 0.5), tail_decay=0.5)  # mass > 1
        with pytest.raises(ConfigError):
            DurationModel(head=(0.5,), tail_decay=1.0)


class TestGapModel:
    def test_mean_matches_samples(self, rng):
        model = GapModel(
            p_small=0.4, small_median=2.0, small_sigma=0.8,
            large_median=50.0, large_sigma=1.5,
        )
        samples = model.sample(rng, 300_000)
        assert samples.mean() == pytest.approx(model.mean(), rel=0.05)
        assert samples.min() >= 1

    def test_heavy_tail(self, rng):
        model = APP_PROFILES["web"].downlink.gap
        samples = model.sample(rng, 200_000)
        # tails orders of magnitude above the median (Fig 4)
        assert np.percentile(samples, 99.5) > 50 * np.median(samples)

    def test_with_activity_scales_mean(self):
        model = APP_PROFILES["cache"].downlink.gap
        busier = model.with_activity(2.0)
        assert busier.mean() < model.mean()
        assert busier.implied_p01 > model.implied_p01

    def test_activity_validation(self):
        with pytest.raises(ConfigError):
            APP_PROFILES["web"].downlink.gap.with_activity(0.0)


class TestIntensityCold:
    def test_intensity_above_threshold(self, rng):
        for profile in APP_PROFILES.values():
            samples = profile.downlink.intensity.sample(rng, 10_000)
            assert samples.min() >= 0.5
            assert samples.max() <= 1.0

    def test_cold_below_threshold(self, rng):
        for profile in APP_PROFILES.values():
            samples = profile.downlink.cold.sample(rng, 10_000)
            assert samples.max() < 0.5
            assert samples.min() >= 0.0

    def test_intensity_validation(self):
        with pytest.raises(ConfigError):
            IntensityModel(components=((1.0, 0.3, 0.8),))  # low below threshold

    def test_cold_validation(self):
        with pytest.raises(ConfigError):
            ColdUtilModel(median=0.0, sigma=1.0)


class TestPaperTargets:
    """The generator's analytic statistics must match Table 2."""

    @pytest.mark.parametrize("app", ["web", "cache", "hadoop"])
    def test_p11_close_to_table2(self, app):
        profile = APP_PROFILES[app]
        paper = PAPER.table2[app]
        assert profile.downlink.duration.implied_p11 == pytest.approx(
            paper.p11, abs=0.06
        )

    def test_hadoop_p11_exact(self):
        assert APP_PROFILES["hadoop"].downlink.duration.implied_p11 == pytest.approx(
            PAPER.table2["hadoop"].p11, abs=1e-9
        )

    @pytest.mark.parametrize("app", ["web", "cache", "hadoop"])
    def test_hot_fractions_ordered(self, app):
        """Hadoop spends the most time hot (Sec 5.4)."""
        hot = {a: APP_PROFILES[a].downlink.hot_fraction for a in APP_PROFILES}
        assert hot["hadoop"] > hot["cache"] > hot["web"]

    def test_likelihood_ratios_ordered(self):
        """r_web > r_cache > r_hadoop (Eqs. 1-3)."""
        ratios = {}
        for app, profile in APP_PROFILES.items():
            p11 = profile.downlink.duration.implied_p11
            p01 = profile.downlink.gap.implied_p01
            ratios[app] = p11 / p01
        assert ratios["web"] > ratios["cache"] > ratios["hadoop"] > 5
