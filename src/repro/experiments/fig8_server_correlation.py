"""Fig 8: Pearson correlation heatmaps between servers of a rack.

ToR-to-server utilization at 250 µs granularity.  Paper landmarks: Web
servers are essentially uncorrelated (stateless, user-driven); Hadoop
shows modest correlation; Cache shows very strong correlation within
subsets of servers (scatter-gather groups).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import (
    block_mean_correlation,
    mean_offdiagonal,
    pearson_matrix,
)
from repro.analysis.mad import resample_utilization
from repro.data.published import PAPER
from repro.experiments.common import APPS, ExperimentResult, rack_window
from repro.synth.calibration import APP_PROFILES


def run(
    seed: int = 0,
    duration_s: float = 10.0,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="Server-pair Pearson correlation @ 250us (ToR->server)",
    )
    ticks_per_250us = 10
    for app in APPS:
        window = rack_window(
            app, seed=seed, duration_s=duration_s, backend=backend, experiment="fig8"
        )
        coarse = resample_utilization(window.downlink_util, ticks_per_250us)
        matrix = pearson_matrix(coarse)
        overall = mean_offdiagonal(matrix)
        group_size = APP_PROFILES[app].correlation.group_size
        n_servers = matrix.shape[0]
        if 1 < group_size < n_servers:
            groups = [
                list(range(start, min(start + group_size, n_servers)))
                for start in range(0, n_servers, group_size)
            ]
            within = block_mean_correlation(matrix, groups)
        else:
            within = overall
        if app == "web":
            web_corr = round(overall, 3)
            result.add(
                "web: mean pairwise correlation",
                f"< {PAPER.fig8_web_corr_max} (almost none)",
                web_corr,
            )
            # stateless, user-driven: almost no correlation
            result.check("web |corr| < 0.10", abs(web_corr) < 0.10)
        elif app == "cache":
            within_corr = round(within, 3)
            across_corr = round((overall * (n_servers - 1) - within * (group_size - 1))
                                / max(n_servers - group_size, 1), 3)
            result.add(
                "cache: within-group correlation",
                f"> {PAPER.fig8_cache_group_corr_min} (strong subsets)",
                within_corr,
            )
            result.add("cache: across-group correlation", "low (subsets only)", across_corr)
            # strong correlation within scatter-gather subsets only
            result.check("cache within-group > 0.50", within_corr > 0.50)
            result.check("cache |across-group| < 0.15", abs(across_corr) < 0.15)
        else:
            low, high = PAPER.fig8_hadoop_corr_range
            hadoop_corr = round(overall, 3)
            result.add("hadoop: mean pairwise correlation", f"{low}-{high} (modest)", hadoop_corr)
            result.check("hadoop corr in (0.05, 0.45)", 0.05 < hadoop_corr < 0.45)
        result.add_series(
            f"{app}_corr_offdiag_hist",
            _offdiag_histogram(matrix),
        )
    result.notes.append("ingress and egress trends were nearly identical in the paper; we report the ToR->server direction")
    return result


def _offdiag_histogram(matrix: np.ndarray, bins: int = 20) -> list[tuple[float, float]]:
    n = matrix.shape[0]
    mask = ~np.eye(n, dtype=bool)
    values = matrix[mask]
    counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
    centers = (edges[:-1] + edges[1:]) / 2.0
    total = counts.sum() or 1
    return [(float(c), float(v) / total) for c, v in zip(centers, counts)]
