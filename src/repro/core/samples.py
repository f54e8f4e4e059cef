"""Sample containers.

A :class:`CounterTrace` is the unit of data everything downstream
consumes: a timestamped series of counter readings for one counter
instance.  Cumulative counters (bytes, per-bin packet counts) are
differenced into per-interval deltas; gauge counters (peak buffer
occupancy) are used as-is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError
from repro.units import NS_PER_S


class ValueKind(enum.Enum):
    """How successive readings relate."""

    CUMULATIVE = "cumulative"  # monotone counter; diff to get per-interval
    GAUGE = "gauge"  # instantaneous / watermark value per interval


@dataclass(slots=True)
class CounterTrace:
    """One counter's sampled time series.

    Parameters
    ----------
    timestamps_ns:
        Sample times (int64 nanoseconds, strictly increasing).
    values:
        Counter readings.  For ``CUMULATIVE`` kind these are monotone
        non-decreasing raw counter values; for ``GAUGE`` they are the
        per-interval reading (e.g. peak buffer bytes since last read).
        2-D values (n_samples x n_bins) hold histogram counters.
    kind:
        Cumulative or gauge semantics.
    name:
        Counter identity, e.g. ``"down3.tx_bytes"``.
    rate_bps:
        Line rate of the port the counter belongs to; needed to turn byte
        deltas into utilization.  Zero when not applicable.
    """

    timestamps_ns: np.ndarray
    values: np.ndarray
    kind: ValueKind
    name: str = ""
    rate_bps: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.timestamps_ns = np.asarray(self.timestamps_ns, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.timestamps_ns.ndim != 1:
            raise AnalysisError("timestamps must be one-dimensional")
        if len(self.timestamps_ns) != len(self.values):
            raise AnalysisError(
                f"{len(self.timestamps_ns)} timestamps vs {len(self.values)} values"
            )
        timestamps = self.timestamps_ns
        if len(timestamps) > 1 and np.any(timestamps[1:] <= timestamps[:-1]):
            raise AnalysisError("timestamps must be strictly increasing")

    # -- basic shape ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    @property
    def duration_ns(self) -> int:
        if len(self) < 2:
            return 0
        return int(self.timestamps_ns[-1] - self.timestamps_ns[0])

    # -- derived series ---------------------------------------------------------

    def interval_durations_ns(self) -> np.ndarray:
        """Length of each between-sample interval (cumulative kind)."""
        return np.diff(self.timestamps_ns)

    def deltas(self, wrap_bits: int | None = None) -> np.ndarray:
        """Per-interval increments of a cumulative counter.

        ``wrap_bits`` (or a ``counter_bits`` entry in :attr:`meta`, set by
        whatever produced the raw readings) declares the hardware counter
        width: real ASIC byte counters are 32-bit registers, so the raw
        value wraps every ~4 GB.  Wraparound is corrected *exactly* by
        adding ``2**wrap_bits`` to each negative diff — exact as long as
        no single interval moves the counter by a full period, which at
        line rate takes seconds against microsecond intervals.
        """
        if self.kind is not ValueKind.CUMULATIVE:
            raise AnalysisError(f"deltas undefined for {self.kind} trace {self.name!r}")
        if wrap_bits is None:
            wrap_bits = self.meta.get("counter_bits")
        if wrap_bits is not None and not 1 <= int(wrap_bits) <= 62:
            raise AnalysisError(
                f"counter width {wrap_bits} not correctable in int64 arithmetic"
            )
        deltas = np.diff(self.values, axis=0)
        if wrap_bits is not None:
            period = np.int64(1) << int(wrap_bits)
            deltas = np.where(deltas < 0, deltas + period, deltas)
        if np.any(deltas < 0):
            raise AnalysisError(f"cumulative counter {self.name!r} went backwards")
        return deltas

    # -- gap awareness ------------------------------------------------------------

    def nominal_interval_ns(self) -> int:
        """The trace's target sampling interval (median observed gap)."""
        intervals = self.interval_durations_ns()
        if len(intervals) == 0:
            raise AnalysisError(f"trace {self.name!r} too short to infer an interval")
        return int(np.median(intervals))

    def missing_interval_mask(
        self, nominal_interval_ns: int | None = None, tolerance: float = 1.5
    ) -> np.ndarray:
        """Boolean mask over between-sample intervals: True where the
        interval spans one or more missed sampling instants.

        An interval longer than ``tolerance`` times the nominal interval
        is a gap — the sampler missed instants there, so per-interval
        statistics derived from it describe an average over the gap, not
        one sampling period.
        """
        if tolerance < 1.0:
            raise AnalysisError(f"tolerance {tolerance} must be >= 1")
        nominal = nominal_interval_ns or self.nominal_interval_ns()
        if nominal <= 0:
            raise AnalysisError("nominal interval must be positive")
        return self.interval_durations_ns() > tolerance * nominal

    def n_missing_instants(self, nominal_interval_ns: int | None = None) -> int:
        """Estimated count of sampling instants lost to gaps."""
        intervals = self.interval_durations_ns()
        if len(intervals) == 0:
            return 0
        nominal = nominal_interval_ns or self.nominal_interval_ns()
        per_gap = np.rint(intervals / nominal).astype(np.int64) - 1
        return int(np.clip(per_gap, 0, None).sum())

    def coverage_fraction(self, nominal_interval_ns: int | None = None) -> float:
        """Fraction of scheduled sampling instants actually observed."""
        intervals = self.interval_durations_ns()
        if len(intervals) == 0:
            return 1.0
        missing = self.n_missing_instants(nominal_interval_ns)
        return len(intervals) / (len(intervals) + missing)

    def rates_bps(self) -> np.ndarray:
        """Per-interval average throughput in bits/s (byte counters)."""
        deltas = self.deltas()
        if deltas.ndim != 1:
            raise AnalysisError("rates_bps needs a scalar byte counter")
        # In place, in the order of ``deltas * 8.0 * NS_PER_S / dt``.
        rates = deltas * 8.0
        del deltas
        rates *= NS_PER_S
        rates /= self.interval_durations_ns()
        return rates

    def utilization(self) -> np.ndarray:
        """Per-interval utilization in [0, ~1] (byte counters).

        Values can marginally exceed 1.0 when a sample lands mid-packet;
        callers that need a hard bound should clip.
        """
        if self.rate_bps <= 0:
            raise AnalysisError(f"trace {self.name!r} has no line rate set")
        rates = self.rates_bps()
        rates /= self.rate_bps
        return rates

    def gauge_values(self) -> np.ndarray:
        if self.kind is not ValueKind.GAUGE:
            raise AnalysisError(f"gauge_values undefined for {self.kind}")
        return self.values

    # -- slicing -----------------------------------------------------------------

    def decimate(self, factor: int) -> "CounterTrace":
        """Keep every ``factor``-th sample.

        For cumulative counters this is exactly what polling at a
        ``factor``-times-coarser interval would have recorded (counter
        values are lossless across skipped reads), so it is the honest
        way to produce e.g. a 100 µs view from a 25 µs trace.
        """
        if factor <= 0:
            raise AnalysisError("decimation factor must be positive")
        return CounterTrace(
            timestamps_ns=self.timestamps_ns[::factor],
            values=self.values[::factor],
            kind=self.kind,
            name=self.name,
            rate_bps=self.rate_bps,
            meta=dict(self.meta),
        )
