"""Property-based tests for the calibrated on/off generator models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import implied_p11

from repro.synth.calibration import DurationModel, GapModel
from repro.synth.onoff import OnOffGenerator
from repro.synth import APP_PROFILES

# -- DurationModel over its whole parameter space ---------------------------

head_pmfs = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=5
).filter(lambda ps: 0 < sum(ps) <= 1.0)


@given(head_pmfs, st.floats(0.0, 0.95))
@settings(max_examples=100)
def test_duration_model_mean_consistent_with_samples(head, decay):
    model = DurationModel(head=tuple(head), tail_decay=decay)
    rng = np.random.default_rng(0)
    samples = model.sample(rng, 30_000)
    assert samples.min() >= 1
    analytic = model.mean()
    assert abs(samples.mean() - analytic) / analytic < 0.15


@given(head_pmfs, st.floats(0.0, 0.95))
def test_duration_model_p11_in_unit_interval(head, decay):
    model = DurationModel(head=tuple(head), tail_decay=decay)
    assert 0.0 <= implied_p11(model) < 1.0


# -- GapModel ----------------------------------------------------------------


@given(
    st.floats(0.0, 1.0),
    st.floats(1.0, 20.0),
    st.floats(0.0, 1.5),
    st.floats(5.0, 2000.0),
    st.floats(0.0, 2.0),
)
@settings(max_examples=100)
def test_gap_model_samples_positive_and_mean_close(p_small, sm, ss, lm, ls):
    model = GapModel(
        p_small=p_small, small_median=sm, small_sigma=ss,
        large_median=lm, large_sigma=ls,
    )
    rng = np.random.default_rng(1)
    samples = model.sample(rng, 50_000)
    assert samples.min() >= 1
    # rounding to >=1 tick biases the mean upward slightly; allow slack
    analytic = model.mean()
    assert samples.mean() <= 2.0 * analytic + 2.0
    assert samples.mean() >= 0.5 * analytic


@given(st.floats(0.1, 10.0))
def test_activity_scaling_direction(activity):
    base = APP_PROFILES["cache"].downlink.gap
    scaled = base.with_activity(activity)
    if activity > 1.0:
        assert scaled.mean() < base.mean()
    elif activity < 1.0:
        assert scaled.mean() > base.mean()


# -- generator invariants -------------------------------------------------------


@given(st.integers(100, 20_000), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_generator_output_invariants(n_ticks, seed):
    profile = APP_PROFILES["web"].downlink
    series = OnOffGenerator(profile).generate(n_ticks, np.random.default_rng(seed))
    assert len(series) == n_ticks
    assert series.utilization.min() >= 0.0
    assert series.utilization.max() <= 1.0
    assert np.all((series.utilization > 0.5) == series.hot)
