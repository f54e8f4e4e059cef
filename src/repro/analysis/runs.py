"""Run-length encoding of boolean series.

Bursts are "unbroken sequences of hot samples" (Sec 5.1), so run-length
encoding is the primitive underneath burst durations, inter-burst gaps,
and the Markov transition counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


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
