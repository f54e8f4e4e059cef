"""Run-length encoding of boolean series.

Bursts are "unbroken sequences of hot samples" (Sec 5.1), so run-length
encoding is the primitive underneath burst durations, inter-burst gaps,
and the Markov transition counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class Run:
    """A maximal run of equal values: ``series[start:stop]`` all ``value``."""

    start: int
    stop: int
    value: bool

    @property
    def length(self) -> int:
        return self.stop - self.start


def runs_of(mask: np.ndarray) -> list[Run]:
    """All maximal runs of a boolean array, in order."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise AnalysisError("runs_of expects a one-dimensional mask")
    if len(mask) == 0:
        return []
    change = np.flatnonzero(np.diff(mask.astype(np.int8))) + 1
    starts = np.concatenate(([0], change))
    stops = np.concatenate((change, [len(mask)]))
    return [
        Run(start=int(a), stop=int(b), value=bool(mask[a]))
        for a, b in zip(starts, stops)
    ]


def run_bounds(mask: np.ndarray, value: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)`` of every maximal run equal to ``value``, in order.

    The one run-length primitive: run lengths, interior runs, burst
    extraction and the streaming fold are all arithmetic on these bounds.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise AnalysisError("run extraction expects a one-dimensional mask")
    padded = np.concatenate(([False], mask if value else ~mask, [False]))
    # Edges alternate start, stop: the padding is outside every run.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Lengths of all maximal runs equal to ``value`` (vectorised)."""
    starts, stops = run_bounds(mask, value)
    return (stops - starts).astype(np.int64)


def interior_run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Run lengths excluding runs touching either boundary.

    Inter-burst gaps are only meaningful between two observed bursts; a
    gap truncated by the start or end of the measurement window would
    bias the distribution downward, so Fig 4's analysis drops them.
    """
    starts, stops = run_bounds(mask, value)
    interior = (starts > 0) & (stops < len(mask))
    return (stops - starts)[interior].astype(np.int64)
