"""Property-based tests: streaming reducers agree with batch analysis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_streaming_update

from repro.analysis import extract_bursts, fit_transition_matrix
from repro.core.streaming import StreamingBurstStats

utilization_series = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=400
).map(np.asarray)


@given(utilization_series)
@settings(max_examples=150)
def test_streaming_equals_batch(util):
    """For ANY input series the streaming statistics equal the batch ones."""
    stream = StreamingBurstStats(interval_ns=25_000)
    stream.update_many(util)
    stream.finalize()
    batch = extract_bursts(util, 25_000)
    assert stream.n_bursts == batch.n_bursts
    assert stream.n_samples == batch.n_samples
    assert stream.hot_fraction == batch.hot_fraction
    mask = util > 0.5
    streaming_matrix = stream.transition_matrix()
    batch_matrix = fit_transition_matrix(mask)
    for attribute in ("p00", "p01", "p10", "p11"):
        a = getattr(streaming_matrix, attribute)
        b = getattr(batch_matrix, attribute)
        assert (np.isnan(a) and np.isnan(b)) or a == b


@given(utilization_series)
@settings(max_examples=150)
def test_duration_buckets_conserve_bursts(util):
    stream = StreamingBurstStats(interval_ns=25_000)
    stream.update_many(util)
    stream.finalize()
    assert sum(stream.duration_buckets) == stream.n_bursts


@given(utilization_series, st.floats(0.01, 0.99))
@settings(max_examples=100)
def test_quantiles_monotone(util, q):
    stream = StreamingBurstStats(interval_ns=25_000)
    stream.update_many(util)
    stream.finalize()
    if stream.n_bursts == 0:
        return
    low = stream.duration_quantile_ns(min(q, 0.5))
    high = stream.duration_quantile_ns(max(q, 0.5))
    assert low <= high


def streaming_state(stats: StreamingBurstStats) -> tuple:
    return (
        stats.duration_buckets,
        stats.n_samples,
        stats.n_hot,
        stats.n_bursts,
        stats.transitions,
        stats._current_run,
        stats._previous_hot,
    )


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=300),
    st.lists(st.integers(0, 300), max_size=12),
    st.floats(0.05, 0.95),
    st.booleans(),
)
@settings(max_examples=300)
def test_chunked_fold_equals_one_call_and_oracle(values, cuts, threshold, finalize):
    """Any chunking of a series across update_many calls — including one
    update() per sample — reaches the same state as one call and as the
    per-sample reference fold, open burst and last state included."""
    util = np.asarray(values, dtype=np.float64)
    fresh = [StreamingBurstStats(interval_ns=25_000, threshold=threshold) for _ in range(4)]
    whole, chunked, single, reference = fresh
    whole.update_many(util)
    for chunk in np.split(util, sorted(min(c, len(util)) for c in cuts)):
        chunked.update_many(chunk)
    for value in values:
        single.update(value)
    scalar_streaming_update(reference, util)
    if finalize:
        for stats in fresh:
            stats.finalize()
    expected = streaming_state(reference)
    assert streaming_state(whole) == expected
    assert streaming_state(chunked) == expected
    assert streaming_state(single) == expected
