"""Packet-size regime split tests (Fig 5 machinery)."""

import numpy as np
import pytest
from factories import regular_trace

from repro.analysis.packetsizes import split_histogram_by_burst
from repro.core.samples import ValueKind
from repro.errors import AnalysisError
from repro.units import gbps, us

TICK = us(25)
CAP = 31_250  # bytes per tick at 10 Gbps


def make_traces(per_tick_bytes, per_tick_hists):
    byte_values = np.concatenate(([0], np.cumsum(per_tick_bytes))).astype(np.int64)
    hist_values = np.concatenate(
        [np.zeros((1, 6), dtype=np.int64), np.cumsum(per_tick_hists, axis=0)]
    )
    byte_trace = regular_trace(
        TICK, byte_values, ValueKind.CUMULATIVE, rate_bps=gbps(10)
    )
    hist_trace = regular_trace(TICK, hist_values, ValueKind.CUMULATIVE)
    return byte_trace, hist_trace


def test_split_by_regime():
    # tick 0: cold, all small packets; tick 1: hot, all MTU
    bytes_per_tick = [1000, 30_000]
    hists = [[10, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 20]]
    byte_trace, hist_trace = make_traces(bytes_per_tick, hists)
    split = split_histogram_by_burst(byte_trace, hist_trace)
    assert split.n_hot_periods == 1
    assert split.inside[5] == pytest.approx(1.0)
    assert split.outside[0] == pytest.approx(1.0)
    assert split.large_fraction_inside == pytest.approx(1.0)
    assert split.large_fraction_outside == 0.0


def test_histograms_normalised():
    bytes_per_tick = [1000, 30_000, 30_000]
    hists = [[5, 5, 0, 0, 0, 0], [0, 0, 4, 0, 0, 16], [2, 0, 0, 0, 0, 18]]
    byte_trace, hist_trace = make_traces(bytes_per_tick, hists)
    split = split_histogram_by_burst(byte_trace, hist_trace)
    assert split.inside.sum() == pytest.approx(1.0)
    assert split.outside.sum() == pytest.approx(1.0)
    assert split.large_fraction_inside == pytest.approx(34 / 40)


def test_large_packet_increase_metric():
    bytes_per_tick = [1000, 30_000]
    hists = [[5, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0, 10]]
    byte_trace, hist_trace = make_traces(bytes_per_tick, hists)
    split = split_histogram_by_burst(byte_trace, hist_trace)
    # 0.5 outside -> 1.0 inside = +100 %
    assert split.large_packet_increase == pytest.approx(1.0)


def test_empty_regime_gives_zero_histogram():
    bytes_per_tick = [100, 200]  # never hot
    hists = [[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
    byte_trace, hist_trace = make_traces(bytes_per_tick, hists)
    split = split_histogram_by_burst(byte_trace, hist_trace)
    assert split.n_hot_periods == 0
    assert split.inside.sum() == 0.0


def test_mismatched_traces_rejected():
    byte_trace, hist_trace = make_traces([1000], [[1, 0, 0, 0, 0, 0]])
    other_byte, _ = make_traces([1000, 2000], [[1, 0, 0, 0, 0, 0]] * 2)
    with pytest.raises(AnalysisError):
        split_histogram_by_burst(other_byte, hist_trace)


def test_1d_histogram_rejected():
    byte_trace, _ = make_traces([1000, 2000], [[1, 0, 0, 0, 0, 0]] * 2)
    flat = regular_trace(
        TICK, np.array([0, 1, 2], dtype=np.int64), ValueKind.CUMULATIVE
    )
    with pytest.raises(AnalysisError):
        split_histogram_by_burst(byte_trace, flat)
