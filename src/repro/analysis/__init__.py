"""Analysis of high-resolution counter traces.

Implements every statistic the paper reports: burst extraction and
durations (Fig 3), inter-burst gaps and the Poisson test (Fig 4, Sec 5.2),
the burst Markov model (Table 2), packet-size regimes (Fig 5),
utilization distributions (Fig 6), uplink balance (Fig 7), server
correlation (Fig 8), burst directionality (Fig 9), and buffer-vs-hot-port
statistics (Fig 10).
"""

from repro.analysis.runs import run_lengths
from repro.analysis.bursts import (
    HOT_THRESHOLD,
    BurstStats,
    GapAwareBurstStats,
    burst_cdf_delta_bound,
    extract_bursts,
    extract_bursts_from_trace,
    extract_bursts_gap_aware,
    hot_mask,
    time_in_bursts_fraction,
    trace_hot_mask,
)
from repro.analysis.markov import TransitionMatrix, fit_transition_matrix
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.analysis.correlation import pearson_correlation, pearson_matrix
from repro.analysis.kstest import exponential_ks_test, KsResult
from repro.analysis.packetsizes import SizeHistogramSplit, split_histogram_by_burst
from repro.analysis.hotports import hot_share_by_direction, hot_port_counts
from repro.analysis.bufferstats import BoxStats, occupancy_by_hot_ports
from repro.analysis.report import format_table

__all__ = [
    "run_lengths",
    "HOT_THRESHOLD",
    "BurstStats",
    "GapAwareBurstStats",
    "burst_cdf_delta_bound",
    "extract_bursts",
    "extract_bursts_from_trace",
    "extract_bursts_gap_aware",
    "trace_hot_mask",
    "hot_mask",
    "time_in_bursts_fraction",
    "TransitionMatrix",
    "fit_transition_matrix",
    "EmpiricalCdf",
    "normalized_mad_series",
    "resample_utilization",
    "pearson_correlation",
    "pearson_matrix",
    "exponential_ks_test",
    "KsResult",
    "SizeHistogramSplit",
    "split_histogram_by_burst",
    "hot_share_by_direction",
    "hot_port_counts",
    "BoxStats",
    "occupancy_by_hot_ports",
    "format_table",
]
