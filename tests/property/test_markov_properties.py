"""Property-based tests for the Markov MLE."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.markov import count_transitions, fit_transition_matrix

masks = arrays(dtype=bool, shape=st.integers(2, 300))


@given(masks)
def test_transition_counts_total(mask):
    ((c00, c01), (c10, c11)) = count_transitions(mask)
    assert c00 + c01 + c10 + c11 == len(mask) - 1
    assert min(c00, c01, c10, c11) >= 0


@given(masks)
def test_rows_sum_to_one_when_defined(mask):
    matrix = fit_transition_matrix(mask)
    ((c00, c01), (c10, c11)) = matrix.counts
    if c00 + c01 > 0:
        assert abs(c00 / (c00 + c01) + matrix.p01 - 1) < 1e-12
        assert 0.0 <= matrix.p01 <= 1.0
    else:
        assert np.isnan(matrix.p01)
    if c10 + c11 > 0:
        assert abs(c10 / (c10 + c11) + matrix.p11 - 1) < 1e-12
    else:
        assert np.isnan(matrix.p11)


@given(masks)
def test_counts_recoverable_from_probabilities(mask):
    matrix = fit_transition_matrix(mask)
    ((c00, c01), (c10, c11)) = matrix.counts
    if c00 + c01 > 0:
        assert round(matrix.p01 * (c00 + c01)) == c01


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 20))
def test_periodic_series_exact(burst_len, gap_len, cycles):
    """For a deterministic periodic series the MLE is exact."""
    cycle = [False] * gap_len + [True] * burst_len
    mask = np.array(cycle * cycles + [False], dtype=bool)
    matrix = fit_transition_matrix(mask)
    # p11 = (burst_len - 1) / burst_len exactly over interior transitions
    expected_p11 = (burst_len - 1) / burst_len
    assert abs(matrix.p11 - expected_p11) < 0.05 or cycles < 3
