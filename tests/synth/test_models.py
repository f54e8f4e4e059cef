"""Buffer-response and drop-model tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.synth.buffermodel import BufferResponseModel
from repro.synth.calibration import APP_PROFILES, BufferResponse
from repro.synth.dropmodel import CoarseLinkPopulation, DropEpisodeModel


class TestBufferResponse:
    def test_monotone_and_saturating(self):
        model = BufferResponseModel(
            BufferResponse(base=0.1, scale=0.8, saturation_ports=5.0, noise_sigma=0.3)
        )
        counts = np.arange(0, 21)
        mean = model.mean_response(counts)
        assert np.all(np.diff(mean) > 0)
        # leveling off: the last step is much smaller than the first
        assert (mean[-1] - mean[-2]) < (mean[1] - mean[0]) / 5
        assert mean[0] == pytest.approx(0.1)

    def test_samples_clipped(self, rng):
        model = BufferResponseModel.for_app(APP_PROFILES["hadoop"])
        samples = model.sample(np.full(10_000, 20), rng)
        assert samples.min() >= 0.0
        assert samples.max() <= 1.0

    def test_hadoop_highest_standing_occupancy(self):
        zero = {
            app: BufferResponseModel.for_app(profile).mean_response(np.array([0]))[0]
            for app, profile in APP_PROFILES.items()
        }
        assert zero["hadoop"] > zero["cache"]
        assert zero["hadoop"] > zero["web"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            BufferResponse(base=0.1, scale=0.5, saturation_ports=0.0, noise_sigma=0.3)
        with pytest.raises(ConfigError):
            BufferResponse(base=-0.1, scale=0.5, saturation_ports=1.0, noise_sigma=0.3)


class TestCoarseLinkPopulation:
    def test_weak_correlation(self, rng):
        """The Fig 1 headline: r ~ 0.1 between utilization and drops."""
        util, drops = CoarseLinkPopulation().sample_links(50_000, rng)
        corr = np.corrcoef(util, drops)[0, 1]
        assert 0.0 < corr < 0.25

    def test_ranges(self, rng):
        util, drops = CoarseLinkPopulation().sample_links(10_000, rng)
        assert util.min() > 0.0 and util.max() <= 0.85
        assert drops.min() >= 0.0 and drops.max() <= 0.05

    def test_zero_drop_links_exist(self, rng):
        _, drops = CoarseLinkPopulation().sample_links(10_000, rng)
        assert 0.3 < (drops == 0).mean() < 0.6

    def test_coupling_knob_raises_correlation(self, rng):
        strong = CoarseLinkPopulation(utilization_coupling=2.5, zero_drop_fraction=0.0)
        weak = CoarseLinkPopulation(utilization_coupling=0.0, zero_drop_fraction=0.0)
        util_s, drops_s = strong.sample_links(50_000, np.random.default_rng(1))
        util_w, drops_w = weak.sample_links(50_000, np.random.default_rng(1))
        corr_s = np.corrcoef(util_s, drops_s)[0, 1]
        corr_w = np.corrcoef(util_w, drops_w)[0, 1]
        assert corr_s > corr_w + 0.1

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            CoarseLinkPopulation().sample_links(0, rng)
        with pytest.raises(ConfigError):
            CoarseLinkPopulation(zero_drop_fraction=1.5)


class TestDropEpisodes:
    def test_episodic_structure(self, rng):
        """Most minutes are drop-free; active minutes carry big counts
        (the Fig 2 signature)."""
        series = DropEpisodeModel(episodes_per_hour=4.0).sample_minutes(720, rng)
        assert (series == 0).mean() > 0.8
        active = series[series > 0]
        assert len(active) > 5
        assert np.median(active) > 100

    def test_rate_scales_activity(self, rng):
        low = DropEpisodeModel(episodes_per_hour=1.0).sample_minutes(
            5000, np.random.default_rng(2)
        )
        high = DropEpisodeModel(episodes_per_hour=10.0).sample_minutes(
            5000, np.random.default_rng(2)
        )
        assert (high > 0).mean() > (low > 0).mean() * 3

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            DropEpisodeModel(episodes_per_hour=0.0)
        with pytest.raises(ConfigError):
            DropEpisodeModel(episodes_per_hour=1.0).sample_minutes(0, rng)
