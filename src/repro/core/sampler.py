"""The high-resolution sampler.

This is the heart of the paper's framework (Sec 4.1): a polling loop on
the switch CPU that reads a group of counters at a target interval.
Timing is best-effort:

* A read whose latency exceeds the interval marks that scheduled instant
  *missed*, and the instants it overruns are skipped entirely.
* Every read that does happen is recorded with its true completion
  timestamp and the exact cumulative counter value, so byte counts stay
  exact across misses (Table 1's note).

``HighResSampler`` runs in two modes: attached to a live simulator
(polling real switch counters event-by-event) or timing-only (a fast
vectorised walk used for Table 1's interval-vs-miss-rate sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.asic import AsicTimingModel
from repro.core.counters import CounterBinding, validate_group
from repro.core.samples import CounterTrace
from repro.errors import ConfigError, SamplingError
from repro.netsim.engine import Simulator
from repro.telemetry.metrics import get_registry
from repro.units import us


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Polling-loop configuration.

    Parameters
    ----------
    interval_ns:
        Target sampling interval (the paper uses 25 us for single byte
        counters, up to 300 us for multi-counter campaigns).
    dedicated_core:
        Whether the loop owns a CPU core.  Giving it up trades timing
        precision for lower switch-CPU utilization (Sec 4.1).
    timing:
        The ASIC read-latency model.
    """

    interval_ns: int = us(25)
    dedicated_core: bool = True
    timing: AsicTimingModel = field(default_factory=AsicTimingModel)

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ConfigError("sampling interval must be positive")


def overrun_covered_instants(
    latency_ns: int, interval_ns: int, instants_remaining: int
) -> int:
    """Scheduled instants consumed by a read whose latency overruns the
    interval, clamped to the window boundary.

    ``instants_remaining`` counts grid instants from the current one to
    the end of the window (the current instant counts as one).  Both
    sampling modes share this clamp so live and timing-only runs agree
    exactly on scheduled/missed accounting for identical latency streams.
    """
    overrun = -(-latency_ns // interval_ns)  # ceil division
    return min(overrun, max(1, instants_remaining))


@dataclass(slots=True)
class TimingStats:
    """Outcome of a polling run, in Table 1's terms."""

    scheduled: int = 0
    taken: int = 0
    missed: int = 0
    #: reads whose latency exceeded the interval (each such read covers
    #: one or more missed instants — ``missed`` counts the instants,
    #: ``overruns`` counts the slow reads themselves)
    overruns: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of scheduled sampling instants not met on time."""
        if self.scheduled == 0:
            return 0.0
        return self.missed / self.scheduled

    def account(self, latency_ns: int, interval_ns: int, instants_remaining: int) -> int:
        """Tally one read issued with ``instants_remaining`` grid instants
        left in the window; return how many instants the loop advances."""
        self.taken += 1
        if latency_ns <= interval_ns:
            self.scheduled += 1
            return 1
        covered = overrun_covered_instants(latency_ns, interval_ns, instants_remaining)
        self.scheduled += covered
        self.missed += covered
        self.overruns += 1
        return -(-latency_ns // interval_ns)

    def publish(self) -> None:
        """Mirror this run's tallies into the telemetry registry."""
        registry = get_registry()
        registry.counter("sampler.instants_scheduled").inc(self.scheduled)
        registry.counter("sampler.reads_taken").inc(self.taken)
        registry.counter("sampler.instants_missed").inc(self.missed)
        registry.counter("sampler.read_overruns").inc(self.overruns)


@dataclass(slots=True)
class SamplerReport:
    """Traces plus timing behaviour for one measurement run."""

    traces: dict[str, CounterTrace]
    timing: TimingStats


class HighResSampler:
    """Polls a group of counter bindings at microsecond granularity."""

    def __init__(
        self,
        config: SamplerConfig,
        bindings: list[CounterBinding],
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not bindings:
            raise SamplingError("sampler needs at least one counter binding")
        validate_group(bindings)
        self.config = config
        self.bindings = bindings
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self._specs = [binding.spec for binding in bindings]

    # -- live mode ---------------------------------------------------------------

    def run_in_sim(self, sim: Simulator, duration_ns: int) -> SamplerReport:
        """Attach to a running simulation and poll for ``duration_ns``.

        This method schedules the polls and then runs the simulator to the
        end of the window, interleaving polls with traffic; every completed
        read appends its timestamp and each binding's value to the traces.
        """
        if duration_ns <= 0:
            raise ConfigError("duration must be positive")
        stats = TimingStats()
        interval = self.config.interval_ns
        n_instants = duration_ns // interval
        if n_instants == 0:
            raise SamplingError("duration shorter than one sampling interval")
        start = sim.now
        end = start + duration_ns
        timestamps: list[int] = []
        columns: list[list] = [[] for _ in self.bindings]
        reads = [binding.read for binding in self.bindings]

        def complete() -> None:
            # Recorded with the true completion timestamp and exact
            # cumulative value — bytes survive misses (Table 1).
            timestamps.append(sim.now)
            for column, read in zip(columns, reads):
                column.append(read())

        def poll(index: int) -> None:
            if index >= n_instants:
                return
            tick_ns = start + index * interval
            latency = self.config.timing.group_read_latency_ns(
                self._specs, self.rng, dedicated_core=self.config.dedicated_core
            )
            # Timing accounting happens at read initiation (it depends only
            # on the latency), so live and timing-only modes agree even when
            # the final read completes past the window end.
            next_index = index + stats.account(latency, interval, n_instants - index)
            sim.schedule_at(tick_ns + latency, complete)
            if next_index < n_instants:
                sim.schedule_at(start + next_index * interval, poll, next_index)

        sim.schedule_at(start, poll, 0)
        sim.run_until(end)
        stats.publish()
        traces = {
            spec.name: CounterTrace(
                timestamps_ns=np.asarray(timestamps, dtype=np.int64),
                values=np.asarray(column),
                kind=spec.value_kind,
                name=spec.name,
                rate_bps=spec.rate_bps,
            )
            for spec, column in zip(self._specs, columns)
        }
        return SamplerReport(traces=traces, timing=stats)

    # -- timing-only mode ------------------------------------------------------------

    def simulate_timing(self, duration_ns: int) -> TimingStats:
        """Walk the polling loop without reading counters (Table 1).

        Miss semantics: a scheduled instant is satisfied only when a read
        completes within one interval of it; a read of latency L > interval
        marks ceil(L / interval) instants missed and the loop resumes on
        the next grid point after completion.
        """
        if duration_ns <= 0:
            raise ConfigError("duration must be positive")
        interval = self.config.interval_ns
        n_ticks = duration_ns // interval
        if n_ticks == 0:
            raise SamplingError("duration shorter than one sampling interval")
        # Draw latencies in chunks; the walk consumes at most one per read.
        stats = TimingStats()
        tick = 0
        chunk = max(1024, int(n_ticks // 4) + 1)
        latencies = self.config.timing.group_read_latencies_ns(
            self._specs, chunk, self.rng, dedicated_core=self.config.dedicated_core
        )
        cursor = 0
        while tick < n_ticks:
            if cursor >= len(latencies):
                latencies = self.config.timing.group_read_latencies_ns(
                    self._specs,
                    chunk,
                    self.rng,
                    dedicated_core=self.config.dedicated_core,
                )
                cursor = 0
            latency = int(latencies[cursor])
            cursor += 1
            tick += stats.account(latency, interval, n_ticks - tick)
        stats.publish()
        return stats
