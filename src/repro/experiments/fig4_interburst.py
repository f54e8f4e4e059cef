"""Fig 4: CDF of time between µbursts, and the Poisson test.

Paper landmarks: ~40 % of Web/Cache inter-burst gaps are under 100 µs,
but the tail reaches hundreds of milliseconds — several orders of
magnitude beyond burst durations; a KS test against an exponential fit
rejects homogeneous-Poisson burst arrivals with p ~ 0.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bursts import extract_bursts_from_trace
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.kstest import KS_MIN_SAMPLES, exponential_ks_test
from repro.analysis.report import cdf_series
from repro.core.samples import CounterTrace
from repro.data.published import PAPER
from repro.experiments.common import (
    APPS,
    ExperimentResult,
    reduce_app_traces,
)
from repro.units import to_us


#: paper: ~40 % of web and cache inter-burst gaps are under 100us
_SMALL_GAP_BANDS = {"web": (0.25, 0.55), "cache": (0.25, 0.60)}


def burst_gaps(trace: CounterTrace) -> np.ndarray:
    """What fig4 keeps of a trace: its inter-burst gaps (ns)."""
    return extract_bursts_from_trace(trace).gaps_ns


def run(
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
    backend=None,
    workers: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig4",
        title="CDF of inter-burst periods @ 25us + Poisson rejection",
    )
    for app in APPS:
        gaps = np.concatenate(reduce_app_traces(
            app, burst_gaps, seed=seed, n_windows=n_windows,
            window_s=window_s, backend=backend, workers=workers,
        )).astype(np.float64)
        paper_small = PAPER.fig4_small_gap_fraction.get(app)
        rows = [
            (
                f"{app}: gaps < 100us",
                f"~{paper_small}" if paper_small else "(lower than web/cache)",
            ),
            (f"{app}: p99 gap (ms)", "up to 100s of ms tail"),
            (
                f"{app}: KS p-value vs exponential",
                f"< {PAPER.fig4_poisson_p_value_max} (reject Poisson)",
            ),
        ]
        if len(gaps) < KS_MIN_SAMPLES:
            # A short window (netsim) can hold too few bursts to test.
            for metric, paper in rows:
                result.add(metric, paper, f"n/a ({len(gaps)} gaps)")
            continue
        cdf = EmpiricalCdf(gaps)
        ks = exponential_ks_test(gaps)
        small = round(float(cdf(100_000.0)), 3)
        p99_ms = round(to_us(int(cdf.p99)) / 1000.0, 2)
        p_value = f"{ks.p_value:.2g}"
        measured = [small, p99_ms, f"{p_value} (stat {ks.statistic:.3f})"]
        for (metric, paper), value in zip(rows, measured):
            result.add(metric, paper, value)
        if app in _SMALL_GAP_BANDS:
            low, high = _SMALL_GAP_BANDS[app]
            result.check(f"{app} gaps<100us in [{low:.2f}, {high:.2f}]", low <= small <= high)
        if app == "web":
            # gap tails orders of magnitude above burst durations
            result.check("web p99 gap > 5ms", p99_ms > 5.0)
        result.check(f"{app} rejects Poisson", float(p_value) < 0.01)
        result.add_series(
            f"{app}_gap_cdf_us", [(x / 1000.0, f) for x, f in cdf_series(cdf)]
        )
    result.notes.append(
        "gap tails several orders of magnitude above burst durations: most "
        "inter-burst periods exceed end-to-end latency (Sec 7 load balancing)"
    )
    return result
