"""Property-based tests for run-length encoding (the burst primitive)."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.bursts import extract_bursts
from repro.analysis.runs import run_bounds, run_lengths

bool_arrays = arrays(dtype=bool, shape=st.integers(0, 300))


@given(bool_arrays)
def test_runs_partition_the_series(mask):
    """True and False runs tile the array exactly: contiguous, alternating,
    complete."""
    runs = sorted(
        (int(start), int(stop), value)
        for value in (True, False)
        for start, stop in zip(*run_bounds(mask, value))
    )
    if len(mask) == 0:
        assert runs == []
        return
    assert runs[0][0] == 0
    assert runs[-1][1] == len(mask)
    for left, right in zip(runs, runs[1:]):
        assert left[1] == right[0]
        assert left[2] != right[2]  # maximal runs alternate
    for start, stop, value in runs:
        assert np.all(mask[start:stop] == value)


@given(bool_arrays)
def test_run_lengths_conserve_mass(mask):
    """True lengths + False lengths == total length."""
    total = run_lengths(mask, True).sum() + run_lengths(mask, False).sum()
    assert total == len(mask)
    assert run_lengths(mask, True).sum() == mask.sum()


@given(bool_arrays)
def test_run_lengths_match_runs_of(mask):
    """Run lengths agree with a plain ``itertools.groupby`` run split."""
    for value in (True, False):
        expected = [len(list(group)) for key, group in itertools.groupby(mask) if key == value]
        assert list(run_lengths(mask, value)) == expected


@given(bool_arrays)
def test_interior_is_subset(mask):
    """Interior runs are the full runs minus at most two boundary runs.

    The interior runs of ``value`` are the inter-burst gaps of the series
    that is hot wherever the mask is not ``value``."""
    for value in (True, False):
        full = list(run_lengths(mask, value))
        interior = list(extract_bursts((mask != value).astype(float), 1).gaps_ns)
        assert len(interior) >= len(full) - 2
        # interior lengths appear in the full list order-preservingly
        if interior:
            start = 1 if (len(mask) and bool(mask[0]) == value) else 0
            assert full[start : start + len(interior)] == interior


@given(bool_arrays, st.integers(1, 10_000))
def test_burst_durations_are_multiples_of_interval(mask, interval):
    durations = extract_bursts(mask.astype(float), interval).durations_ns
    assert np.all(durations % interval == 0)
    assert np.all(durations >= interval) or len(durations) == 0
