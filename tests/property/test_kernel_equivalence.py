"""Equivalence suite: vectorized kernels == scalar reference oracles.

The analysis hot paths (wrap-corrected deltas, gap masks, run-length /
burst extraction, ECDF construction and evaluation) run on numpy
kernels; ``tests/oracles.py`` keeps naive pure-Python oracles of the
same computations.  These property tests assert the two agree
*exactly* — values and dtypes — on arbitrary traces, including counter
wraparound, gaps at segment boundaries, and empty / one-sample inputs,
so the fast paths can be optimized without silently changing results.

The synthesizer's bulk-draw kernels (ECMP link assignment, burst
durations, intensity mixture, correlated burst painting) are held to
their one-draw-per-call oracles the same way: same seed in, same bytes
out, same generator state after.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    gap_aware_core_segmented,
    loop_correlated_utilization,
    loop_duration_sample,
    loop_ecmp_weight_segments,
    scalar_deltas,
    scalar_ecdf_probs,
    scalar_hot_mask,
    scalar_interior_run_lengths,
    scalar_missing_interval_mask,
    scalar_run_lengths,
    scalar_sorted,
)
from repro.analysis.bursts import (
    _burst_runs,
    extract_bursts,
    extract_bursts_from_trace,
    extract_bursts_gap_aware,
    hot_mask,
)
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.runs import run_lengths
from repro.core.samples import CounterTrace, ValueKind
from repro.synth.calibration import APP_PROFILES, DurationModel, IntensityModel
from repro.synth.onoff import correlated_utilization
from repro.synth.rackmodel import _ecmp_weight_segments
from repro.units import gbps, us

INTERVAL = us(25)

bool_arrays = arrays(dtype=bool, shape=st.integers(0, 200))

utilizations = arrays(
    dtype=np.float64,
    shape=st.integers(0, 200),
    elements=st.floats(0.0, 1.2, allow_nan=False),
)


def assert_same(vectorized, scalar):
    vectorized, scalar = np.asarray(vectorized), np.asarray(scalar)
    assert vectorized.dtype == scalar.dtype
    assert np.array_equal(vectorized, scalar)


# -- wrap-corrected deltas -------------------------------------------------------


@st.composite
def cumulative_values(draw):
    """Monotone int64 counter readings, optionally 0 or 1 sample long."""
    n = draw(st.integers(0, 60))
    increments = draw(
        st.lists(st.integers(0, 2**33), min_size=n, max_size=n)
    )
    return np.cumsum(np.asarray(increments, dtype=np.int64)).astype(np.int64)


@given(cumulative_values())
def test_deltas_equivalence_unwrapped(values):
    assert_same(np.diff(values), scalar_deltas(values))


@given(cumulative_values(), st.sampled_from([32, 48]))
def test_deltas_equivalence_wrapped(values, bits):
    """Wrapped readings: both kernels recover the true increments."""
    wrapped = np.mod(values, np.int64(1) << bits)
    if len(values) < 2:
        trace_deltas = np.zeros(0, dtype=np.int64)
    else:
        trace = CounterTrace(
            timestamps_ns=INTERVAL * np.arange(len(values), dtype=np.int64),
            values=wrapped,
            kind=ValueKind.CUMULATIVE,
            name="wrap",
        )
        trace_deltas = trace.deltas(wrap_bits=bits)
    assert_same(trace_deltas, scalar_deltas(wrapped, wrap_bits=bits))
    # Wrap correction is exact while no interval advances a full period.
    true = np.diff(values)
    if len(true) and true.max(initial=0) < (1 << bits):
        assert np.array_equal(trace_deltas, true)


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, 400), min_size=n, max_size=n),
        )
    )
)
def test_gap_mask_equivalence(n_and_intervals):
    n, interval_list = n_and_intervals
    timestamps = np.concatenate(
        ([0], np.cumsum(np.asarray(interval_list, dtype=np.int64)))
    )
    trace = CounterTrace(
        timestamps_ns=timestamps,
        values=np.zeros(n + 1, dtype=np.int64),
        kind=ValueKind.CUMULATIVE,
        name="gaps",
    )
    nominal = trace.nominal_interval_ns()
    assert_same(
        trace.missing_interval_mask(nominal),
        scalar_missing_interval_mask(trace.interval_durations_ns(), nominal, 1.5),
    )


# -- run-length extraction -------------------------------------------------------


@given(bool_arrays, st.booleans())
def test_run_lengths_equivalence(mask, value):
    assert_same(run_lengths(mask, value), scalar_run_lengths(mask, value))


@given(bool_arrays, st.booleans())
def test_interior_run_lengths_equivalence(mask, value):
    """Interior runs of ``value`` are the inter-burst gaps of the series
    that is hot wherever the mask is not ``value``."""
    gaps = extract_bursts((mask != value).astype(float), 1).gaps_ns
    assert_same(gaps, scalar_interior_run_lengths(mask, value))


@given(utilizations, st.floats(0.05, 0.95))
def test_hot_mask_equivalence(utilization, threshold):
    assert_same(
        hot_mask(utilization, threshold), scalar_hot_mask(utilization, threshold)
    )


@given(utilizations, st.floats(0.05, 0.95))
def test_burst_extraction_equivalence(utilization, threshold):
    """Full burst summary agrees kernel-by-kernel with the oracles."""
    mask = scalar_hot_mask(utilization, threshold)
    stats = extract_bursts(utilization, INTERVAL, threshold)
    assert_same(stats.durations_ns, scalar_run_lengths(mask, True) * INTERVAL)
    assert_same(stats.gaps_ns, scalar_interior_run_lengths(mask, False) * INTERVAL)


# -- gap-aware burst extraction --------------------------------------------------


@st.composite
def gappy_traces(draw):
    """Byte traces with arbitrary sample loss, including boundary gaps.

    Builds a regular-grid cumulative byte counter, then drops an
    arbitrary subset of samples (always keeping at least two), so gaps
    can sit at the very start or end of the surviving trace and bursts
    can straddle or exactly abut every split point.
    """
    n = draw(st.integers(2, 80))
    hot_bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    util = np.where(np.asarray(hot_bits), 0.95, 0.05)
    bytes_per_tick = np.rint(util * gbps(10) * INTERVAL / 8e9).astype(np.int64)
    values = np.concatenate(([0], np.cumsum(bytes_per_tick)))
    keep_bits = draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))
    keep = np.asarray(keep_bits, dtype=bool)
    if keep.sum() < 2:
        keep[:2] = True
    timestamps = INTERVAL * np.arange(n + 1, dtype=np.int64)
    return CounterTrace(
        timestamps_ns=timestamps[keep],
        values=values[keep],
        kind=ValueKind.CUMULATIVE,
        name="gappy",
        rate_bps=gbps(10),
    )


@settings(max_examples=300)
@given(gappy_traces(), st.floats(0.1, 0.9))
def test_gap_aware_core_equivalence(trace, threshold):
    """The burst core, given the observed-interval mask, matches the
    segment-materializing reference on arbitrary gappy traces:
    durations, inter-burst gaps, pooled hot mask, segment count, and
    clipped-burst count."""
    nominal = trace.nominal_interval_ns()
    segmented = gap_aware_core_segmented(trace, nominal, threshold, 1.5)
    observed = ~trace.missing_interval_mask(nominal, 1.5)
    vectorized = _burst_runs(hot_mask(trace.utilization(), threshold), nominal, observed)
    for left, right in zip(segmented, vectorized, strict=True):
        if isinstance(left, np.ndarray):
            assert_same(right, left)
        else:
            assert left == right
    public = extract_bursts_gap_aware(trace, threshold)
    assert_same(public.durations_ns, segmented[0])
    assert_same(public.stats.gaps_ns, segmented[1])
    assert public.n_segments == segmented[3]
    assert public.n_clipped_bursts == segmented[4]


@st.composite
def gap_free_traces(draw):
    """Byte traces whose intervals jitter within +-10 % of 25 us: never
    a gap at the default tolerance, never an estimated missed instant."""
    n = draw(st.integers(1, 200))
    jitter = draw(st.lists(st.integers(-2_500, 2_500), min_size=n, max_size=n))
    intervals = INTERVAL + np.asarray(jitter, dtype=np.int64)
    util = np.asarray(
        draw(st.lists(st.floats(0.0, 1.2, allow_nan=False), min_size=n, max_size=n))
    )
    bytes_per_interval = np.rint(util * gbps(10) * intervals / 8e9).astype(np.int64)
    return CounterTrace(
        timestamps_ns=np.concatenate(([0], np.cumsum(intervals))),
        values=np.concatenate(([0], np.cumsum(bytes_per_interval))),
        kind=ValueKind.CUMULATIVE,
        name="clean",
        rate_bps=gbps(10),
    )


@settings(max_examples=200)
@given(gap_free_traces(), st.floats(0.05, 0.95))
def test_gap_aware_reduces_to_clean_without_gaps(trace, threshold):
    """On a gap-free trace the gap-aware extraction *is* the clean one:
    every BurstStats field equal (arrays and dtypes included), one
    segment, nothing clipped, a zero CDF bound."""
    assert not trace.missing_interval_mask().any()
    gap_aware = extract_bursts_gap_aware(trace, threshold)
    clean = extract_bursts_from_trace(trace, threshold)
    for field in dataclasses.fields(clean):
        left = getattr(gap_aware.stats, field.name)
        right = getattr(clean, field.name)
        if isinstance(right, np.ndarray):
            assert_same(left, right)
        else:
            assert type(left) is type(right) and left == right, field.name
    assert gap_aware.n_segments == 1
    assert gap_aware.n_clipped_bursts == 0
    assert gap_aware.cdf_delta_bound == 0.0


# -- empirical CDF ---------------------------------------------------------------


finite_samples = arrays(
    dtype=np.float64,
    shape=st.integers(1, 150),
    elements=st.floats(-1e9, 1e9, allow_nan=False, width=64),
)


@given(finite_samples)
def test_cdf_construction_equivalence(samples):
    assert_same(EmpiricalCdf(samples).values, scalar_sorted(samples))


@given(
    finite_samples,
    st.lists(st.floats(-2e9, 2e9, allow_nan=False), min_size=1, max_size=30),
)
def test_cdf_evaluation_equivalence(samples, queries):
    cdf = EmpiricalCdf(samples)
    queries = np.asarray(queries, dtype=np.float64)
    assert_same(cdf(queries), scalar_ecdf_probs(cdf.values, queries))
    for x in queries[:5]:
        assert cdf(float(x)) == float(scalar_ecdf_probs(cdf.values, np.asarray(x)))


# -- rack synthesis draw loops -----------------------------------------------------

RACK_SEEDS = range(6)
RACK_ACTIVITIES = (0.3, 1.0, 2.0)
N_UPLINKS = 4


def assert_same_draws(fast, fast_rng, loop, loop_rng):
    for fast_array, loop_array in zip(fast, loop, strict=True):
        assert fast_array.dtype == loop_array.dtype
        assert fast_array.tobytes() == loop_array.tobytes()
    # Both consumed exactly the same stream.
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("n_ticks", [1, 7, 400, 40_000])
@pytest.mark.parametrize("app", sorted(APP_PROFILES))
def test_rack_draw_loops_match_oracles(app, n_ticks):
    base = APP_PROFILES[app]
    ecmp = base.ecmp
    group_size = base.correlation.group_size
    for activity in RACK_ACTIVITIES:
        profile = base.with_activity(activity)
        for seed in RACK_SEEDS:
            args = (group_size, n_ticks, profile.downlink,
                    profile.correlation.participation, profile.correlation.shared_fraction)
            fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_draws(
                correlated_utilization(*args, fast_rng), fast_rng,
                loop_correlated_utilization(*args, loop_rng), loop_rng,
            )
            args = (n_ticks, N_UPLINKS, ecmp.n_flows, ecmp.mean_lifetime_ticks, ecmp.weight_shape)
            fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_draws(
                [_ecmp_weight_segments(*args, fast_rng)], fast_rng,
                [loop_ecmp_weight_segments(*args, loop_rng)], loop_rng,
            )


@pytest.mark.parametrize("link_weights", [None, [1, 1, 0, 1], [0.5, 1, 1, 0.25]])
@pytest.mark.parametrize("app", sorted(APP_PROFILES))
def test_weighted_ecmp_matches_oracle(app, link_weights):
    ecmp = APP_PROFILES[app].ecmp
    args = (40_000, N_UPLINKS, ecmp.n_flows, ecmp.mean_lifetime_ticks, ecmp.weight_shape)
    weights = None if link_weights is None else np.asarray(link_weights, dtype=np.float64)
    fast_rng, loop_rng = np.random.default_rng(0), np.random.default_rng(0)
    assert_same_draws(
        [_ecmp_weight_segments(*args, fast_rng, link_weights=weights)], fast_rng,
        [loop_ecmp_weight_segments(*args, loop_rng, link_weights=weights)], loop_rng,
    )


@pytest.mark.parametrize("mean_lifetime_ticks", [0.3, 1.0, 150.0])
@pytest.mark.parametrize("n_flows", [1, 64])
@pytest.mark.parametrize("n_links", [1, 3, 9, 16])
def test_ecmp_matches_oracle_across_shapes(n_links, n_flows, mean_lifetime_ticks):
    """Link counts on both sides of NumPy's 8-wide pairwise sum, one flow
    and many, and lifetimes short enough for several deaths per step."""
    half_dead = np.resize([1.0, 0.0], n_links) if n_links > 1 else None
    for link_weights in (None, half_dead):
        for seed in (0, 1):
            args = (2_000, n_links, n_flows, mean_lifetime_ticks, 1.3)
            fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_draws(
                [_ecmp_weight_segments(*args, fast_rng, link_weights=link_weights)], fast_rng,
                [loop_ecmp_weight_segments(*args, loop_rng, link_weights=link_weights)], loop_rng,
            )


@pytest.mark.parametrize("app", sorted(APP_PROFILES))
def test_intensity_sample_matches_choice(app):
    model: IntensityModel = APP_PROFILES[app].downlink.intensity
    weights = np.array([c[0] for c in model.components])
    lows = np.array([c[1] for c in model.components])
    highs = np.array([c[2] for c in model.components])
    fast_rng, loop_rng = np.random.default_rng(0), np.random.default_rng(0)
    for n in (1, 7, 5_000):
        which = loop_rng.choice(len(weights), size=n, p=weights / weights.sum())
        expected = lows[which] + loop_rng.random(n) * (highs[which] - lows[which])
        assert model.sample(fast_rng, n).tobytes() == expected.tobytes()
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


@given(
    st.lists(st.floats(0.0, 0.2), min_size=1, max_size=5),
    st.floats(0.0, 0.95),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_duration_sample_matches_loop(head, tail_decay, n, seed):
    model = DurationModel(head=tuple(head), tail_decay=tail_decay)
    fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_draws(
        [model.sample(fast_rng, n)], fast_rng, [loop_duration_sample(model, loop_rng, n)], loop_rng
    )
