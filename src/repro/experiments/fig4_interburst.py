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
from repro.data.published import PAPER
from repro.experiments.common import (
    APPS,
    ExperimentResult,
    app_byte_traces,
    backend_note,
)
from repro.units import to_us


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
        traces = app_byte_traces(
            app, seed=seed, n_windows=n_windows, window_s=window_s,
            backend=backend, workers=workers,
        )
        gaps = np.concatenate(
            [extract_bursts_from_trace(trace).gaps_ns for trace in traces]
        ).astype(np.float64)
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
        measured = [
            round(float(cdf(100_000.0)), 3),
            round(to_us(int(cdf.p99)) / 1000.0, 2),
            f"{ks.p_value:.2g} (stat {ks.statistic:.3f})",
        ]
        for (metric, paper), value in zip(rows, measured):
            result.add(metric, paper, value)
        result.add_series(
            f"{app}_gap_cdf_us", [(x / 1000.0, f) for x, f in cdf_series(cdf)]
        )
    result.notes.append(
        "gap tails several orders of magnitude above burst durations: most "
        "inter-burst periods exceed end-to-end latency (Sec 7 load balancing)"
    )
    note = backend_note(backend)
    if note:
        result.notes.append(note)
    return result
