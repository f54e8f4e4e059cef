"""Run-length encoding tests."""

import numpy as np
import pytest

from repro.analysis.bursts import extract_bursts
from repro.analysis.runs import run_bounds, run_lengths
from repro.errors import AnalysisError


def interior_run_lengths(mask, value):
    """Lengths of the runs of ``value`` that touch neither boundary: the
    inter-burst gaps of the series that is hot wherever ``mask`` is not
    ``value``."""
    return extract_bursts((np.asarray(mask) != value).astype(float), 1).gaps_ns


class TestRunsOf:
    """The maximal runs of a mask, as ``run_bounds`` reports them."""

    def test_simple(self):
        mask = np.array([True, True, False, True])
        starts, stops = run_bounds(mask, True)
        assert list(starts) == [0, 3] and list(stops) == [2, 4]
        starts, stops = run_bounds(mask, False)
        assert list(starts) == [2] and list(stops) == [3]

    def test_empty(self):
        starts, stops = run_bounds(np.array([], dtype=bool))
        assert len(starts) == 0 and len(stops) == 0

    def test_single_run(self):
        starts, stops = run_bounds(np.array([False] * 5), False)
        assert list(starts) == [0] and list(stops) == [5]
        assert len(run_bounds(np.array([False] * 5), True)[0]) == 0

    def test_2d_rejected(self):
        with pytest.raises(AnalysisError):
            run_bounds(np.zeros((2, 2), dtype=bool))


class TestRunLengths:
    def test_true_runs(self):
        mask = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert list(run_lengths(mask, True)) == [2, 1, 3]
        assert list(run_lengths(mask, False)) == [1, 2]

    def test_all_same(self):
        mask = np.ones(7, dtype=bool)
        assert list(run_lengths(mask, True)) == [7]
        assert list(run_lengths(mask, False)) == []

    def test_empty(self):
        assert len(run_lengths(np.array([], dtype=bool), True)) == 0


class TestInteriorRuns:
    def test_boundary_runs_dropped(self):
        #          [--gap--]burst[gap]burst[--gap--]
        mask = np.array([0, 0, 1, 0, 1, 0, 0], dtype=bool)
        # interior False runs: only the middle single gap
        assert list(interior_run_lengths(mask, False)) == [1]
        # interior True runs: both bursts are interior (flanked by gaps)
        assert list(interior_run_lengths(mask, True)) == [1, 1]

    def test_burst_touching_start_dropped(self):
        mask = np.array([1, 1, 0, 1, 0], dtype=bool)
        assert list(interior_run_lengths(mask, True)) == [1]

    def test_all_one_value_yields_nothing(self):
        assert len(interior_run_lengths(np.ones(5, dtype=bool), True)) == 0

    def test_no_interior_runs(self):
        mask = np.array([1, 0, 1], dtype=bool)
        assert list(interior_run_lengths(mask, False)) == [1]
        assert len(interior_run_lengths(mask, True)) == 0
