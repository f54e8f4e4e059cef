"""Seed-stability: headline conclusions must not depend on the seed.

Each check runs a cheap configuration at three seeds and asserts the
*qualitative* claim holds in every run — the guard against conclusions
that only hold for the default seed.
"""

import numpy as np
import pytest

from repro.analysis import extract_bursts, fit_transition_matrix
from repro.analysis.hotports import hot_share_by_direction
from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.data.published import PAPER
from repro.synth import APP_PROFILES, OnOffGenerator, RackSynthesizer
from repro.synth.calibration import BASE_TICK_NS

SEEDS = (1, 17, 202)
N_TICKS = 400_000


@pytest.mark.parametrize("seed", SEEDS)
class TestPerPortStability:
    def test_p90_bands(self, seed):
        rng = np.random.default_rng(seed)
        # fig3's band: the paper's p90 plus one period
        for app, p90_ns in PAPER.fig3_p90_burst_duration_ns.items():
            series = OnOffGenerator(APP_PROFILES[app].downlink).generate(N_TICKS, rng)
            stats = extract_bursts(series.utilization, BASE_TICK_NS)
            assert stats.p90_duration_ns <= p90_ns + BASE_TICK_NS, f"{app} seed {seed}"

    def test_likelihood_ratio_ordering(self, seed):
        rng = np.random.default_rng(seed)
        ratios = {}
        for app in ("web", "cache", "hadoop"):
            series = OnOffGenerator(APP_PROFILES[app].downlink).generate(N_TICKS, rng)
            ratios[app] = fit_transition_matrix(series.hot).likelihood_ratio
        assert ratios["web"] > ratios["cache"] > ratios["hadoop"] > 5

    def test_hot_fraction_ordering(self, seed):
        rng = np.random.default_rng(seed)
        hot = {}
        for app in ("web", "cache", "hadoop"):
            series = OnOffGenerator(APP_PROFILES[app].downlink).generate(N_TICKS, rng)
            hot[app] = series.hot.mean()
        assert hot["hadoop"] > hot["cache"] > hot["web"]


@pytest.mark.parametrize("seed", SEEDS)
class TestRackStability:
    def test_fig9_ordering(self, seed):
        shares = {}
        for app in ("web", "cache", "hadoop"):
            rng = np.random.default_rng(seed)
            window = RackSynthesizer(app).synthesize(120_000, rng)
            up = resample_utilization(window.uplink_egress_util, 12)
            down = resample_utilization(window.downlink_util, 12)
            shares[app] = hot_share_by_direction(up, down).uplink_share
        assert shares["web"] < shares["hadoop"] < shares["cache"]

    def test_fig7_hadoop_least_balanced(self, seed):
        medians = {}
        for app in ("web", "hadoop"):
            rng = np.random.default_rng(seed)
            window = RackSynthesizer(app).synthesize(120_000, rng)
            series = normalized_mad_series(
                resample_utilization(window.uplink_egress_util, 2)
            )
            medians[app] = float(np.median(series))
        assert medians["hadoop"] > medians["web"] > 0.25
