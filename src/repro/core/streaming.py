"""Streaming on-switch analysis.

Sec 4.2: "Due to data retention limitations, storing all samples of all
counters over 24 hours was not feasible" — the full dataset would have
been hundreds of terabytes.  An alternative the paper's design points to
is reducing data *on the switch CPU*: classify samples hot/cold as they
are read and keep only O(1)-size burst statistics.  This module provides
that: an online burst detector with a logarithmic duration histogram and
streaming transition counts, so the Table 2 / Fig 3 statistics of an
arbitrarily long run fit in a few hundred bytes.

Samples arrive in chunks of any size.  Each chunk is folded in with the
batch primitives — :func:`~repro.analysis.bursts.hot_mask`,
:func:`~repro.analysis.runs.run_bounds` and
:func:`~repro.analysis.markov.count_transitions` — with no per-sample
loop; only the open burst and the last hot/cold state carry from one
chunk to the next, so any chunking reaches the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.bursts import check_burst_params, hot_mask
from repro.analysis.markov import TransitionMatrix, count_transitions
from repro.analysis.runs import run_bounds
from repro.errors import AnalysisError, ConfigError


@dataclass(slots=True)
class StreamingBurstStats:
    """O(1)-memory burst statistics, folded in one chunk of samples at a time."""

    interval_ns: int
    threshold: float = 0.5
    #: log2 histogram of burst durations in sampling periods:
    #: bucket k counts bursts of length in [2^k, 2^(k+1))
    duration_buckets: list = field(default_factory=lambda: [0] * 24)
    n_samples: int = 0
    n_hot: int = 0
    n_bursts: int = 0
    transitions: list = field(default_factory=lambda: [[0, 0], [0, 0]])
    _current_run: int = 0
    _previous_hot: int = -1  # -1 = no sample yet

    def __post_init__(self) -> None:
        check_burst_params(self.interval_ns, self.threshold)

    def update(self, utilization: float) -> None:
        """Feed one sample's utilization."""
        self.update_many(np.array([utilization], dtype=np.float64))

    def update_many(self, utilization: np.ndarray) -> None:
        """Feed a chunk of consecutive samples."""
        hot = hot_mask(utilization, self.threshold)
        n = len(hot)
        if n == 0:
            return
        self.n_samples += n
        self.n_hot += int(np.count_nonzero(hot))
        if self._previous_hot >= 0:
            self.transitions[self._previous_hot][int(hot[0])] += 1
        if n >= 2:
            for row, counts in zip(self.transitions, count_transitions(hot)):
                row[0] += counts[0]
                row[1] += counts[1]
        self._previous_hot = int(hot[-1])
        starts, stops = run_bounds(hot)
        lengths = (stops - starts).astype(np.int64)
        if self._current_run:
            if hot[0]:
                lengths[0] += self._current_run  # the open burst continues
            else:
                self._close_burst()
        if len(lengths) and stops[-1] == n:
            self._current_run = int(lengths[-1])  # still open at chunk end
            lengths = lengths[:-1]
        else:
            self._current_run = 0
        self._count_bursts(lengths)

    def _count_bursts(self, lengths: np.ndarray) -> None:
        """Bucket closed bursts of the given lengths (in periods)."""
        # frexp's exponent is bit_length for positive integers.
        buckets = np.minimum(np.frexp(lengths)[1] - 1, len(self.duration_buckets) - 1)
        counts = np.bincount(buckets, minlength=len(self.duration_buckets))
        for bucket, count in enumerate(counts.tolist()):
            self.duration_buckets[bucket] += count
        self.n_bursts += len(lengths)

    def _close_burst(self) -> None:
        self._count_bursts(np.array([self._current_run], dtype=np.int64))
        self._current_run = 0

    def finalize(self) -> None:
        """Close an open burst at the end of the measurement window."""
        if self._current_run:
            self._close_burst()

    def merge(self, other: "StreamingBurstStats") -> None:
        """Fold another window's *finalized* statistics into this one.

        This is the shard-join operation: per-window stats collected by
        independent shards combine into campaign totals (buckets,
        sample/burst counts, and transition counts all sum).  The windows
        are treated as independent streams — no transition is synthesised
        across the seam, and a burst touching a window edge counts with
        the length observed inside its own window, which is exactly how
        separate measurement windows already behave.  Both sides must be
        finalized (no open run) so no burst is silently dropped.
        """
        if self.interval_ns != other.interval_ns or self.threshold != other.threshold:
            raise AnalysisError(
                "cannot merge burst stats with different interval/threshold "
                f"({self.interval_ns}ns/{self.threshold} vs "
                f"{other.interval_ns}ns/{other.threshold})"
            )
        if len(self.duration_buckets) != len(other.duration_buckets):
            raise AnalysisError("cannot merge burst stats with different bucket counts")
        if self._current_run or other._current_run:
            raise AnalysisError("finalize() both stats before merging")
        for bucket, count in enumerate(other.duration_buckets):
            self.duration_buckets[bucket] += count
        self.n_samples += other.n_samples
        self.n_hot += other.n_hot
        self.n_bursts += other.n_bursts
        for row in range(2):
            for col in range(2):
                self.transitions[row][col] += other.transitions[row][col]

    # -- derived statistics -----------------------------------------------------

    @property
    def hot_fraction(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.n_hot / self.n_samples

    def duration_quantile_ns(self, q: float) -> float:
        """Approximate burst-duration quantile from the log2 histogram.

        Resolution is one octave — enough to place p90 on Fig 3's log
        axis, at a millionth of the storage of raw samples.
        """
        if not 0.0 < q <= 1.0:
            raise AnalysisError("quantile must be in (0, 1]")
        if self.n_bursts == 0:
            raise AnalysisError("no bursts observed")
        target = q * self.n_bursts
        seen = 0
        for bucket, count in enumerate(self.duration_buckets):
            seen += count
            if seen >= target:
                # upper edge of the bucket, in time units
                return float((2 ** (bucket + 1) - 1) * self.interval_ns)
        return float((2 ** len(self.duration_buckets)) * self.interval_ns)

    def transition_matrix(self) -> TransitionMatrix:
        """The same MLE Table 2 computes, from streaming counts."""
        return TransitionMatrix.from_counts(self.transitions)

    def memory_bytes(self) -> int:
        """Upper bound on the state size shipped to the collector."""
        return 8 * (len(self.duration_buckets) + 8)


class ReservoirSampler:
    """Uniform reservoir of raw samples for spot-check distributions.

    Complements :class:`StreamingBurstStats`: keeps an unbiased
    fixed-size sample of per-interval utilization so the collector can
    still draw Fig 6-style CDFs without storing the full stream.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity <= 0:
            raise ConfigError("reservoir capacity must be positive")
        self.capacity = capacity
        self.rng = rng
        self._reservoir: list[float] = []
        self.n_seen = 0

    def offer(self, value: float) -> None:
        self.n_seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
            return
        index = int(self.rng.integers(0, self.n_seen))
        if index < self.capacity:
            self._reservoir[index] = value

    def offer_many(self, values: np.ndarray) -> None:
        for value in np.asarray(values, dtype=np.float64):
            self.offer(float(value))

    @property
    def sample(self) -> np.ndarray:
        return np.asarray(self._reservoir)
