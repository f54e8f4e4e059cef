"""Size-distribution and arrival-process tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.netsim import Simulator
from repro.units import seconds
from repro.workloads.distributions import LogNormalSizes, ParetoSizes
from repro.workloads.flows import OnOffArrivals, PoissonArrivals


def sample_many(dist, rng, n):
    return np.array([dist.sample(rng) for _ in range(n)], dtype=np.int64)


class TestSizeDistributions:
    def test_lognormal_median(self, rng):
        dist = LogNormalSizes(median_bytes=10_000, sigma=0.5)
        samples = sample_many(dist, rng, 3000)
        assert np.median(samples) == pytest.approx(10_000, rel=0.1)
        assert samples.min() >= 64

    def test_lognormal_clipping(self, rng):
        dist = LogNormalSizes(median_bytes=1000, sigma=2.0, min_bytes=500, max_bytes=2000)
        samples = sample_many(dist, rng, 500)
        assert samples.min() >= 500 and samples.max() <= 2000

    def test_lognormal_validation(self):
        with pytest.raises(ConfigError):
            LogNormalSizes(median_bytes=0, sigma=1.0)
        with pytest.raises(ConfigError):
            LogNormalSizes(median_bytes=10, sigma=1.0, min_bytes=100, max_bytes=50)

    def test_pareto_heavy_tail(self, rng):
        dist = ParetoSizes(min_bytes=1000, alpha=1.2)
        samples = sample_many(dist, rng, 5000)
        assert samples.min() >= 1000
        # heavy tail: max far beyond median
        assert samples.max() > 20 * np.median(samples)

    def test_pareto_bounded(self, rng):
        dist = ParetoSizes(min_bytes=1000, alpha=0.8, max_bytes=10_000)
        assert sample_many(dist, rng, 1000).max() <= 10_000


class TestPoissonArrivals:
    def test_rate_approximately_respected(self, rng):
        sim = Simulator()
        fired = []
        arrivals = PoissonArrivals(
            sim=sim, rate_per_s=1000.0, fire=lambda: fired.append(sim.now), rng=rng
        )
        arrivals.start()
        sim.run_until(seconds(1))
        assert 850 < len(fired) < 1150

    def test_until_respected(self, rng):
        sim = Simulator()
        fired = []
        arrivals = PoissonArrivals(
            sim=sim,
            rate_per_s=1000.0,
            fire=lambda: fired.append(sim.now),
            rng=rng,
            until_ns=seconds(0.1),
        )
        arrivals.start()
        sim.run_until(seconds(1))
        assert all(t < seconds(0.1) for t in fired)

    def test_bad_rate(self, rng):
        arrivals = PoissonArrivals(
            sim=Simulator(), rate_per_s=0.0, fire=lambda: None, rng=rng
        )
        with pytest.raises(ConfigError):
            arrivals.start()


class TestOnOffArrivals:
    def test_bursty_structure(self, rng):
        """Events cluster in ON periods: the variance-to-mean ratio of
        per-bin counts must far exceed a Poisson process's."""
        sim = Simulator()
        fired = []
        arrivals = OnOffArrivals(
            sim=sim,
            on_rate_per_s=2000.0,
            mean_on_s=0.02,
            median_off_s=0.05,
            off_sigma=1.0,
            fire=lambda: fired.append(sim.now),
            rng=rng,
        )
        arrivals.start()
        sim.run_until(seconds(5))
        assert len(fired) > 100
        bins = np.bincount(np.asarray(fired) // seconds(0.01))
        dispersion = bins.var() / bins.mean()
        assert dispersion > 3.0

    def test_validation(self, rng):
        arrivals = OnOffArrivals(
            sim=Simulator(),
            on_rate_per_s=0.0,
            mean_on_s=1.0,
            median_off_s=1.0,
            off_sigma=1.0,
            fire=lambda: None,
            rng=rng,
        )
        with pytest.raises(ConfigError):
            arrivals.start()
