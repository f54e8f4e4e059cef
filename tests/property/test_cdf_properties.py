"""Property-based tests for the empirical CDF."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cdf import EmpiricalCdf

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200).map(np.asarray)


@given(samples)
def test_cdf_is_monotone_and_bounded(data):
    cdf = EmpiricalCdf(data)
    grid = np.sort(np.concatenate([data, data + 1, data - 1]))
    values = cdf(grid)
    assert np.all(np.diff(values) >= 0)
    assert values.min() >= 0.0
    assert values.max() <= 1.0


@given(samples)
def test_cdf_hits_one_at_maximum(data):
    cdf = EmpiricalCdf(data)
    assert cdf(float(data.max())) == 1.0
    assert cdf(float(data.min()) - 1.0) == 0.0


@given(samples)
def test_percentiles_monotone(data):
    cdf = EmpiricalCdf(data)
    qs = [0, 10, 25, 50, 75, 90, 100]
    values = [cdf.percentile(q) for q in qs]
    assert values == sorted(values)
    assert values[0] == float(data.min())
    assert values[-1] == float(data.max())


@given(samples)
def test_median_within_range(data):
    cdf = EmpiricalCdf(data)
    assert data.min() <= cdf.median <= data.max()
    # summation round-off can push the mean a few ulps past the extremes
    slack = max(1e-9, 1e-12 * float(np.abs(data).max()))
    assert data.min() - slack <= cdf.mean <= data.max() + slack


@given(samples, samples)
def test_ks_distance_is_metric_like(a, b):
    cdf_a, cdf_b = EmpiricalCdf(a), EmpiricalCdf(b)
    d = cdf_a.ks_distance(cdf_b)
    assert 0.0 <= d <= 1.0
    assert d == cdf_b.ks_distance(cdf_a)
    assert cdf_a.ks_distance(cdf_a) == 0.0


#: -0.0 folded into 0.0: ``np.percentile`` partitions its input, which may
#: reorder equal values of opposite sign and so flip the sign of a zero.
unsigned_samples = samples.map(lambda data: data + 0.0)
landmarks = st.sampled_from([0.0, 50.0, 90.0, 99.0, 100.0])


@given(unsigned_samples, st.one_of(landmarks, st.floats(min_value=0.0, max_value=100.0)))
def test_percentile_equals_numpy_bit_for_bit(data, q):
    expected = np.float64(np.percentile(np.sort(data), q))
    assert np.float64(EmpiricalCdf(data).percentile(q)).tobytes() == expected.tobytes()


@given(unsigned_samples, st.integers(min_value=2, max_value=300))
def test_grid_equals_numpy_bit_for_bit(data, n_points):
    xs, _ = EmpiricalCdf(data).grid(n_points)
    expected = np.percentile(np.sort(data), np.linspace(0.0, 100.0, n_points))
    assert xs.tobytes() == expected.tobytes()
