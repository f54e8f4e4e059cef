"""Fig 2: 1-minute drop time series on a low- and a high-utilization port.

The paper plots 12 hours of per-minute drops for a ~9 %-utilization web
port and a ~43 %-utilization offline-processing port: in both, drops
arrive in episodes shorter than the measurement bin, with drop-free bins
in between.
"""

from __future__ import annotations

import numpy as np

from repro.data.published import PAPER
from repro.experiments.common import ExperimentResult
from repro.synth.dropmodel import DropEpisodeModel


def run(seed: int = 0, hours: int = 12) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    n_minutes = hours * 60
    low = DropEpisodeModel(episodes_per_hour=2.5).sample_minutes(n_minutes, rng)
    high = DropEpisodeModel(episodes_per_hour=7.0).sample_minutes(n_minutes, rng)

    result = ExperimentResult(
        experiment_id="fig2",
        title="Drop time series, 1-minute bins over 12 hours",
    )

    def describe(name: str, series: np.ndarray, paper_util: float) -> None:
        active = series > 0
        result.add(f"{name} port avg utilization", paper_util, paper_util)
        result.add(
            f"{name}: minutes with zero drops",
            "most (episodic)",
            round(float((~active).mean()), 3),
        )
        # Episodes rarely span adjacent minutes: runs of drop-minutes are short.
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], active.view(np.int8), [0])))))[::2]
        result.add(
            f"{name}: median drop-episode span (minutes)",
            "< measurement granularity",
            float(np.median(runs)) if len(runs) else 0.0,
        )

    describe("low-util", low, PAPER.fig2_low_util_port)
    describe("high-util", high, PAPER.fig2_high_util_port)
    result.add(
        "high/low drop-minute ratio",
        "> 1 (but both bursty)",
        round(float((high > 0).mean() / max((low > 0).mean(), 1e-9)), 2),
    )
    result.add_series(
        "low_util_drops_per_min", [(float(i), float(v)) for i, v in enumerate(low)]
    )
    result.add_series(
        "high_util_drops_per_min", [(float(i), float(v)) for i, v in enumerate(high)]
    )
    return result
