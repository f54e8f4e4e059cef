"""Fig 3: CDF of µburst durations at 25 µs granularity.

Key paper landmarks: p90 burst duration <= 200 µs for all rack types,
Web lowest at 50 µs (two periods); over 60 % of Web and Cache bursts end
within one period; Hadoop has the longest tail but nearly all bursts end
within 0.5 ms; and µbursts (< 1 ms) encompass essentially all bursts.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bursts import extract_bursts_from_trace
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.report import cdf_series
from repro.core.samples import CounterTrace
from repro.data.published import PAPER
from repro.experiments.common import (
    APPS,
    ExperimentResult,
    reduce_app_traces,
)
from repro.units import to_us


def burst_durations(trace: CounterTrace) -> np.ndarray:
    """What fig3 keeps of a trace: its burst durations (ns)."""
    return extract_bursts_from_trace(trace).durations_ns


def run(
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
    backend=None,
    workers: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig3",
        title="CDF of microburst durations @ 25us",
    )
    for app in APPS:
        durations = np.concatenate(reduce_app_traces(
            app, burst_durations, seed=seed, n_windows=n_windows,
            window_s=window_s, backend=backend, workers=workers,
        ))
        cdf = EmpiricalCdf(durations.astype(np.float64))
        single = float((durations == 25_000).mean())
        micro = float((durations < 1_000_000).mean())
        result.add(
            f"{app}: p90 burst duration (us)",
            f"<= {to_us(PAPER.fig3_p90_burst_duration_ns[app]):.0f}",
            round(to_us(int(cdf.p90)), 1),
        )
        result.add(f"{app}: single-period bursts",
                   f">= {PAPER.fig3_single_period_fraction_min.get(app, 0.0):.2f}" if app in PAPER.fig3_single_period_fraction_min else "(not stated)",
                   round(single, 3))
        result.add(f"{app}: microburst (<1ms) share", f">= {PAPER.microburst_share_min}", round(micro, 3))
        result.add_series(
            f"{app}_duration_cdf_us",
            [(x / 1000.0, f) for x, f in cdf_series(cdf)],
        )
    result.notes.append(
        "durations are multiples of the 25us sampling period, as in the paper"
    )
    return result
