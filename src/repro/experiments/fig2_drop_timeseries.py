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

    def describe(name: str, series: np.ndarray, paper_util: float) -> tuple[float, float]:
        active = series > 0
        result.add(f"{name} port avg utilization", paper_util, paper_util)
        zero_minutes = round(float((~active).mean()), 3)
        result.add(f"{name}: minutes with zero drops", "most (episodic)", zero_minutes)
        # Episodes rarely span adjacent minutes: runs of drop-minutes are short.
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], active.view(np.int8), [0])))))[::2]
        span = float(np.median(runs)) if len(runs) else 0.0
        result.add(
            f"{name}: median drop-episode span (minutes)",
            "< measurement granularity",
            span,
        )
        return zero_minutes, span

    low_zero, low_span = describe("low-util", low, PAPER.fig2_low_util_port)
    high_zero, _ = describe("high-util", high, PAPER.fig2_high_util_port)
    ratio = round(float((high > 0).mean() / max((low > 0).mean(), 1e-9)), 2)
    result.add("high/low drop-minute ratio", "> 1 (but both bursty)", ratio)
    # drops arrive in sub-minute episodes on both ports
    result.check("low-util zero-drop minutes > 0.5", low_zero > 0.5)
    result.check("high-util zero-drop minutes > 0.3", high_zero > 0.3)
    result.check("low-util median episode <= 2 minutes", low_span <= 2.0)
    # the high-utilization port drops more often, but both are episodic
    result.check("high/low drop-minute ratio > 1", ratio > 1.0)
    result.add_series(
        "low_util_drops_per_min", [(float(i), float(v)) for i, v in enumerate(low)]
    )
    result.add_series(
        "high_util_drops_per_min", [(float(i), float(v)) for i, v in enumerate(high)]
    )
    return result
