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
    p90, single, micro = {}, {}, {}
    for app in APPS:
        durations = np.concatenate(reduce_app_traces(
            app, burst_durations, seed=seed, n_windows=n_windows,
            window_s=window_s, backend=backend, workers=workers,
        ))
        cdf = EmpiricalCdf(durations.astype(np.float64))
        p90[app] = round(to_us(int(cdf.p90)), 1)
        single[app] = round(float((durations == 25_000).mean()), 3)
        micro[app] = round(float((durations < 1_000_000).mean()), 3)
        result.add(
            f"{app}: p90 burst duration (us)",
            f"<= {to_us(PAPER.fig3_p90_burst_duration_ns[app]):.0f}",
            p90[app],
        )
        result.add(f"{app}: single-period bursts",
                   f">= {PAPER.fig3_single_period_fraction_min.get(app, 0.0):.2f}" if app in PAPER.fig3_single_period_fraction_min else "(not stated)",
                   single[app])
        result.add(f"{app}: microburst (<1ms) share", f">= {PAPER.microburst_share_min}", micro[app])
        result.add_series(
            f"{app}_duration_cdf_us",
            [(x / 1000.0, f) for x, f in cdf_series(cdf)],
        )
    # paper: p90 <= 200us for all apps, web lowest at 50us
    result.check("web p90 burst <= 75us", p90["web"] <= 75)
    result.check("cache p90 burst <= 300us", p90["cache"] <= 300)
    result.check("hadoop p90 burst <= 300us", p90["hadoop"] <= 300)
    # paper: over 60 % of web/cache bursts end within one period
    result.check("web single-period >= 0.60", single["web"] >= 0.60)
    result.check("cache single-period >= 0.55", single["cache"] >= 0.55)
    # abstract: bursts last at most tens of us, so all are microbursts
    for app in APPS:
        result.check(f"{app} microburst share >= 0.95", micro[app] >= 0.95)
    result.notes.append(
        "durations are multiples of the 25us sampling period, as in the paper"
    )
    return result
