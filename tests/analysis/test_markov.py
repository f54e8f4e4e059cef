"""Markov model tests (Table 2 machinery)."""

import numpy as np
import pytest

from repro.analysis.markov import (
    count_transitions,
    fit_pooled_transition_matrix,
    fit_transition_matrix,
)
from repro.errors import AnalysisError


class TestCounting:
    def test_exact_counts(self):
        mask = np.array([0, 0, 1, 1, 0, 1], dtype=bool)
        ((c00, c01), (c10, c11)) = count_transitions(mask)
        assert (c00, c01, c10, c11) == (1, 2, 1, 1)

    def test_too_short(self):
        with pytest.raises(AnalysisError):
            count_transitions(np.array([True]))


class TestMle:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        mask = rng.random(1000) < 0.3
        matrix = fit_transition_matrix(mask)
        (c00, c01), (c10, c11) = matrix.counts
        assert c00 / (c00 + c01) + matrix.p01 == pytest.approx(1.0)
        assert c10 / (c10 + c11) + matrix.p11 == pytest.approx(1.0)

    def test_paper_formula(self):
        """MLE = count(a, b) / count(a) exactly (the paper's estimator)."""
        mask = np.array([0, 1, 0, 0, 1, 1, 1, 0], dtype=bool)
        matrix = fit_transition_matrix(mask)
        ((c00, c01), (c10, c11)) = matrix.counts
        assert matrix.p01 == pytest.approx(c01 / (c00 + c01))
        assert matrix.p11 == pytest.approx(c11 / (c10 + c11))

    def test_independent_series_ratio_near_one(self):
        rng = np.random.default_rng(1)
        mask = rng.random(400_000) < 0.1
        ratio = fit_transition_matrix(mask).likelihood_ratio
        assert 0.8 < ratio < 1.2

    def test_correlated_series_ratio_large(self):
        """A sticky chain yields r >> 1 (the paper's finding)."""
        rng = np.random.default_rng(2)
        state = False
        samples = []
        for _ in range(200_000):
            if state:
                state = rng.random() < 0.7
            else:
                state = rng.random() < 0.01
            samples.append(state)
        ratio = fit_transition_matrix(np.array(samples)).likelihood_ratio
        assert ratio > 20

    def test_never_hot_gives_nan_p11(self):
        matrix = fit_transition_matrix(np.zeros(100, dtype=bool))
        assert np.isnan(matrix.p11)

    def test_stationary_fraction(self):
        rng = np.random.default_rng(3)
        mask = rng.random(500_000) < 0.2
        matrix = fit_transition_matrix(mask)
        # The fitted chain's stationary hot probability, p01 / (p01 + p10).
        stationary = matrix.p01 / (matrix.p01 + 1.0 - matrix.p11)
        assert stationary == pytest.approx(0.2, abs=0.01)


class TestPooling:
    def test_pooled_equals_concatenated_counts(self):
        rng = np.random.default_rng(4)
        masks = [rng.random(1000) < 0.2 for _ in range(5)]
        pooled = fit_pooled_transition_matrix(masks)
        totals = np.zeros((2, 2))
        for mask in masks:
            ((a, b), (c, d)) = count_transitions(mask)
            totals += np.array([[a, b], [c, d]])
        assert pooled.p01 == pytest.approx(totals[0, 1] / totals[0].sum())

    def test_pooling_is_not_averaging(self):
        """Windows with different lengths must be weighted by counts."""
        heavy = np.array([0, 1] * 500, dtype=bool)
        light = np.array([0, 0, 0, 1], dtype=bool)
        pooled = fit_pooled_transition_matrix([heavy, light])
        mean_of_fits = np.mean(
            [fit_transition_matrix(heavy).p01, fit_transition_matrix(light).p01]
        )
        assert pooled.p01 != pytest.approx(mean_of_fits)

    def test_empty_pool_rejected(self):
        with pytest.raises(AnalysisError):
            fit_pooled_transition_matrix([])
