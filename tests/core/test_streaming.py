"""Streaming on-switch analysis tests."""

import numpy as np
import pytest

from repro.analysis import extract_bursts, fit_transition_matrix
from repro.core.streaming import StreamingBurstStats
from repro.errors import AnalysisError
from repro.synth import APP_PROFILES, OnOffGenerator


class TestStreamingBurstStats:
    def test_matches_batch_analysis(self, rng):
        """Streaming counts must agree exactly with the offline analysis."""
        series = OnOffGenerator(APP_PROFILES["cache"].downlink).generate(200_000, rng)
        stream = StreamingBurstStats(interval_ns=25_000)
        stream.update_many(series.utilization)
        stream.finalize()
        batch = extract_bursts(series.utilization, 25_000)
        matrix = fit_transition_matrix(series.utilization > 0.5)
        assert stream.n_bursts == batch.n_bursts
        assert stream.hot_fraction == pytest.approx(batch.hot_fraction)
        streaming_matrix = stream.transition_matrix()
        assert streaming_matrix.p11 == pytest.approx(matrix.p11)
        assert streaming_matrix.p01 == pytest.approx(matrix.p01)

    def test_quantile_within_one_octave(self, rng):
        series = OnOffGenerator(APP_PROFILES["hadoop"].downlink).generate(500_000, rng)
        stream = StreamingBurstStats(interval_ns=25_000)
        stream.update_many(series.utilization)
        stream.finalize()
        batch = extract_bursts(series.utilization, 25_000)
        exact_p90 = batch.p90_duration_ns
        approx_p90 = stream.duration_quantile_ns(0.9)
        # log2 histogram: at most one octave of error upward
        assert exact_p90 <= approx_p90 <= 2.2 * max(exact_p90, 25_000)

    def test_open_burst_needs_finalize(self):
        stream = StreamingBurstStats(interval_ns=25_000)
        for value in (0.1, 0.9, 0.9):
            stream.update(value)
        assert stream.n_bursts == 0  # still open
        stream.finalize()
        assert stream.n_bursts == 1

    def test_memory_is_constant(self, rng):
        stream = StreamingBurstStats(interval_ns=25_000)
        before = stream.memory_bytes()
        stream.update_many(rng.random(50_000))
        assert stream.memory_bytes() == before
        assert before < 1024  # a few hundred bytes, as promised

    def test_quantile_validation(self):
        stream = StreamingBurstStats(interval_ns=25_000)
        with pytest.raises(AnalysisError):
            stream.duration_quantile_ns(0.0)
        with pytest.raises(AnalysisError):
            stream.duration_quantile_ns(0.5)  # no bursts yet

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interval_ns=0),
            dict(interval_ns=-25_000),
            dict(interval_ns=25_000, threshold=1.5),
            dict(interval_ns=25_000, threshold=0.0),
        ],
    )
    def test_parameters_validated_like_extract_bursts(self, kwargs):
        """Parameters extract_bursts rejects are rejected up front, not
        discovered later as a 0 ns quantile or an all-cold stream."""
        threshold = kwargs.get("threshold", 0.5)
        with pytest.raises(AnalysisError):
            extract_bursts(np.array([0.9, 0.1]), kwargs["interval_ns"], threshold)
        with pytest.raises(AnalysisError):
            StreamingBurstStats(**kwargs)

    def test_duration_bucketing(self):
        stream = StreamingBurstStats(interval_ns=25_000)
        # bursts of length 1, 2, 4: buckets 0, 1, 2
        for length in (1, 2, 4):
            for _ in range(length):
                stream.update(0.9)
            stream.update(0.1)
        assert stream.duration_buckets[0] == 1
        assert stream.duration_buckets[1] == 1
        assert stream.duration_buckets[2] == 1
