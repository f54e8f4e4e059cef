"""Calibration scorecard.

Computes, for each application, every per-port statistic the synthesiser
is calibrated to (Table 2 probabilities and ratios, Fig 3 landmarks,
hot-time fractions) and scores them against the published targets as an
:class:`~repro.experiments.common.ExperimentResult`: one row and one
check per statistic.  Exposed on the CLI as ``repro validate``, which
exits 1 when a check fails.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import extract_bursts, fit_transition_matrix
from repro.data.published import PAPER
from repro.experiments.common import ExperimentResult
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS
from repro.synth.onoff import OnOffGenerator


def calibration_scorecard(seed: int = 0, n_ticks: int = 2_000_000) -> ExperimentResult:
    """Generate one long series per app and score it against the paper:
    one row and one check per calibrated statistic."""
    result = ExperimentResult(
        experiment_id="validate", title="Calibration scorecard vs the paper"
    )

    def score(metric: str, target: str, measured: float, passed: bool) -> None:
        result.add(metric, target, measured)
        result.check(f"{metric} {target}", passed)

    for app, profile in APP_PROFILES.items():
        rng = np.random.default_rng(seed)
        series = OnOffGenerator(profile.downlink).generate(n_ticks, rng)
        stats = extract_bursts(series.utilization, BASE_TICK_NS)
        matrix = fit_transition_matrix(series.hot)
        paper = PAPER.table2[app]

        p90_target_ns = PAPER.fig3_p90_burst_duration_ns[app]
        score(
            f"{app}: p90 burst duration (us)",
            f"<= {p90_target_ns / 1000:.0f} (+1 period slack)",
            stats.p90_duration_ns / 1000.0,
            stats.p90_duration_ns <= p90_target_ns + BASE_TICK_NS,
        )
        score(
            f"{app}: p(1|1)",
            f"{paper.p11} +/- 0.08",
            matrix.p11,
            paper.p11 - 0.08 <= matrix.p11 <= paper.p11 + 0.08,
        )
        score(
            f"{app}: likelihood ratio r",
            f"{paper.likelihood_ratio} within 2.5x",
            matrix.likelihood_ratio,
            paper.likelihood_ratio / 2.5
            <= matrix.likelihood_ratio
            <= paper.likelihood_ratio * 2.5,
        )
        if app in PAPER.fig3_single_period_fraction_min:
            minimum = PAPER.fig3_single_period_fraction_min[app]
            score(
                f"{app}: single-period burst share",
                f">= {minimum}",
                stats.single_period_fraction,
                stats.single_period_fraction >= minimum,
            )
        score(
            f"{app}: microburst (<1ms) share",
            f">= {PAPER.microburst_share_min}",
            stats.microburst_fraction,
            stats.microburst_fraction >= PAPER.microburst_share_min,
        )
    # cross-application orderings
    hot = {
        app: OnOffGenerator(profile.downlink)
        .generate(400_000, np.random.default_rng(seed + 1))
        .hot.mean()
        for app, profile in APP_PROFILES.items()
    }
    ordered = bool(hot["hadoop"] > hot["cache"] > hot["web"])
    score("all: hot-time ordering hadoop > cache > web", "holds", ordered, ordered)
    return result
