"""Two-state burst Markov model (Sec 5.1, Table 2).

Each sampling interval is classified hot (1) or not (0); the maximum
likelihood estimate of the first-order transition matrix is the count of
each transition divided by the occupancy of the source state.  The
likelihood ratio r = p(1|1) / p(1|0) measures burst correlation: r >> 1
means hot samples clump, refuting independent arrivals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class TransitionMatrix:
    """MLE of a 2-state Markov chain: ``p01`` = p(1|0) and ``p11`` =
    p(1|1), the probability of a hot sample after a cold and after a hot
    one.  Each row sums to 1, so these two fix the chain (NaN when the
    source state was never observed).
    """

    p01: float
    p11: float
    counts: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def from_counts(cls, counts: Sequence[Sequence[int]]) -> "TransitionMatrix":
        """The MLE from 2x2 transition counts: each row normalised by its
        total, NaN for a source state never observed."""
        (c00, c01), (c10, c11) = counts
        from0 = c00 + c01
        from1 = c10 + c11
        nan = float("nan")
        return cls(
            p01=c01 / from0 if from0 else nan,
            p11=c11 / from1 if from1 else nan,
            counts=((c00, c01), (c10, c11)),
        )

    @property
    def likelihood_ratio(self) -> float:
        """r = p(1|1) / p(1|0); ~1 for independent arrivals (Sec 5.1)."""
        if self.p01 == 0.0:
            return float("inf") if self.p11 > 0 else float("nan")
        return self.p11 / self.p01


def count_transitions(mask: np.ndarray) -> tuple[tuple[int, int], tuple[int, int]]:
    """Counts of (prev, next) state pairs in a boolean series."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise AnalysisError("transition counting expects a 1-D mask")
    if len(mask) < 2:
        raise AnalysisError("need at least two samples to count transitions")
    prev = mask[:-1]
    nxt = mask[1:]
    c00 = int(np.sum(~prev & ~nxt))
    c01 = int(np.sum(~prev & nxt))
    c10 = int(np.sum(prev & ~nxt))
    c11 = int(np.sum(prev & nxt))
    return ((c00, c01), (c10, c11))


def fit_transition_matrix(mask: np.ndarray) -> TransitionMatrix:
    """MLE transition matrix of a hot/not-hot series (Table 2)."""
    return TransitionMatrix.from_counts(count_transitions(mask))


def fit_pooled_transition_matrix(masks: list[np.ndarray]) -> TransitionMatrix:
    """Pool transition counts across many windows before normalising.

    The paper computes per-application matrices over all measured
    windows of that rack type; pooling counts (rather than averaging
    per-window probabilities) is the correct MLE for that.
    """
    if not masks:
        raise AnalysisError("no masks to pool")
    totals = np.zeros((2, 2), dtype=np.int64)
    for mask in masks:
        totals += count_transitions(mask)
    return TransitionMatrix.from_counts(totals.tolist())
