"""The packet-level data plane behind the backend protocol.

Wraps :mod:`repro.netsim` (event engine + ToR switch + application
workloads) as a :class:`~repro.backends.base.MeasurementBackend`: each
campaign window builds a fresh rack, installs the window's application
workload, warms the transports up, and then collects counters through
the *real* :class:`~repro.core.sampler.HighResSampler` polling loop —
misses, true timestamps, and all.

Scale
-----
Packet-level simulation still cannot run the paper's full 3.5 G-sample
campaign, so netsim campaigns run at a documented reduced scale
(:class:`NetsimScale`): a capped per-window duration and a short
warm-up.  After the event-engine performance pass (DESIGN.md §8,
~2.5x events/sec) the default rack is the paper's own 16-down / 4-up
ToR with a 40 ms window cap — roughly 100 ms of simulated rack traffic
per wall-clock second on a commodity core.  The *shape* statistics the
experiments check (burst-duration CDFs, hot fractions, directionality)
are preserved at this scale — that cross-validation is the ext-netsim
experiment.

Determinism
-----------
Every stochastic input — the event engine, the workload arrival
processes, and the sampler's read-latency draws — is seeded from
``(backend seed, window identity)`` via
:func:`repro.core.seeding.stable_site_key`, so any worker of any shard
rebuilds the identical simulation for the same window.  The backend
itself is an immutable dataclass of plain values and pickles cleanly
into ``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.backends.base import timed_window
from repro.core.campaign import CampaignWindow
from repro.core.counters import bind_peak_buffer, bind_tx_bytes, bind_tx_size_hist
from repro.core.sampler import HighResSampler, SamplerConfig
from repro.core.samples import CounterTrace
from repro.core.seeding import stable_site_key
from repro.errors import ConfigError
from repro.netsim import (
    RackConfig,
    Simulator,
    SwitchCounterSurface,
    TorSwitchConfig,
    build_rack,
)
from repro.synth.calibration import BASE_TICK_NS
from repro.synth.rackmodel import RackWindow
from repro.telemetry.metrics import get_registry
from repro.units import NS_PER_S, ms, us
from repro.workloads import (
    CacheConfig,
    CacheWorkload,
    HadoopConfig,
    HadoopWorkload,
    WebConfig,
    WebWorkload,
)
from repro.workloads.distributions import ParetoSizes

#: Per-application workload recipe at backend scale.  Rates are tuned for
#: the reduced rack (they match ext-netsim's cross-validation settings).
_WORKLOADS = {
    "web": (WebWorkload, WebConfig(request_rate_per_s=60, fanout=12)),
    "cache": (CacheWorkload, CacheConfig(batch_rate_per_s=350)),
    "hadoop": (
        HadoopWorkload,
        HadoopConfig(
            transfer_rate_per_s=20,
            transfer_size=ParetoSizes(min_bytes=300_000, alpha=2.0, max_bytes=2_000_000),
        ),
    ),
}

#: Which config field scales with diurnal activity, per application.
_RATE_FIELD = {
    "web": "request_rate_per_s",
    "cache": "batch_rate_per_s",
    "hadoop": "transfer_rate_per_s",
}


def workload_for(app: str, activity: float = 1.0):
    """(workload class, config) for ``app``, with its offered-load rate
    scaled by ``activity`` (the netsim analogue of the synthesiser's
    diurnal activity knob)."""
    try:
        workload_class, config = _WORKLOADS[app]
    except KeyError:
        raise ConfigError(
            f"unknown rack type {app!r}; netsim backend supports {sorted(_WORKLOADS)}"
        ) from None
    if activity <= 0:
        raise ConfigError("activity must be positive")
    if activity != 1.0:
        rate_field = _RATE_FIELD[app]
        config = dataclasses.replace(
            config, **{rate_field: getattr(config, rate_field) * activity}
        )
    return workload_class, config


@dataclass(frozen=True, slots=True)
class NetsimScale:
    """The documented reduced scale for packet-level campaigns.

    ``max_window_ns`` caps how much of a campaign window is actually
    simulated — a 2 s synth window maps to 40 ms of packet simulation.
    The default rack is now the paper's full 16-down / 4-up ToR (so
    ``map_port`` is the identity for standard plans): the event-engine
    performance pass (DESIGN.md §8) bought back enough headroom that the
    paper-shaped rack with a doubled window cap still simulates faster
    than the old 8-downlink / 20 ms default did.  The sampling intervals
    are fixed: 25 µs for byte counters, 50 µs for the buffer watermark.
    """

    n_downlinks: int = 16
    n_uplinks: int = 4
    n_remote_hosts: int = 24
    warmup_ns: int = ms(10)
    max_window_ns: int = ms(40)
    interval_ns: ClassVar[int] = us(25)
    buffer_interval_ns: ClassVar[int] = us(50)

    def __post_init__(self) -> None:
        if self.n_downlinks < 1 or self.n_uplinks < 1 or self.n_remote_hosts < 1:
            raise ConfigError("netsim scale needs at least one of each port/host")
        if self.warmup_ns < 0:
            raise ConfigError("warmup cannot be negative")
        if self.max_window_ns < self.interval_ns:
            raise ConfigError("max window must cover at least one sampling interval")


@dataclass(frozen=True, slots=True)
class NetsimBackend:
    """Measurement backend over the packet-level simulator."""

    name: ClassVar[str] = "netsim"
    tick_ns: ClassVar[int] = BASE_TICK_NS

    seed: int = 0
    scale: NetsimScale = dataclasses.field(default_factory=NetsimScale)

    # -- window setup ----------------------------------------------------------

    def _window_seed(self, window: CampaignWindow, role: str) -> int:
        return stable_site_key(self.seed, window.rack_id, window.hour, role)

    def _duration_ns(self, window: CampaignWindow) -> int:
        return min(window.duration_ns, self.scale.max_window_ns)

    def map_port(self, port_name: str) -> str:
        """Fold a plan's port name onto the simulated rack.

        Plans are written against the paper's 16-down / 4-up rack, which
        the default scale now matches (identity mapping).  Reduced scales
        keep the port *class* (downlink vs uplink) and wrap the index, so
        ``down13`` measures ``down5`` on an 8-downlink rack.
        """
        if port_name.startswith("down"):
            return f"down{int(port_name[4:]) % self.scale.n_downlinks}"
        if port_name.startswith("up"):
            return f"up{int(port_name[2:]) % self.scale.n_uplinks}"
        raise ConfigError(f"unmappable port name {port_name!r}")

    def _build(self, window: CampaignWindow, activity: float = 1.0):
        """Fresh warmed-up simulation for one window: (sim, surface)."""
        sim = Simulator(seed=self._window_seed(window, "engine"))
        rack = build_rack(
            sim,
            RackConfig(
                name=window.rack_type,
                switch=TorSwitchConfig(
                    n_downlinks=self.scale.n_downlinks,
                    n_uplinks=self.scale.n_uplinks,
                ),
                n_remote_hosts=self.scale.n_remote_hosts,
            ),
        )
        workload_class, config = workload_for(window.rack_type, activity)
        workload_class(rack, config, rng=self._window_seed(window, "workload")).install()
        if self.scale.warmup_ns:
            sim.run_for(self.scale.warmup_ns)
        return sim, SwitchCounterSurface(rack.tor)

    @staticmethod
    def _publish_engine_stats(sim: Simulator, elapsed_ns: int) -> None:
        """Mirror one finished window's engine tallies into telemetry.

        Reads existing engine counters *after* the window completes —
        nothing here runs in the per-event hot loop, and nothing feeds
        back into simulation state.
        """
        registry = get_registry()
        registry.counter("netsim.events_processed").inc(sim.events_processed)
        registry.gauge("netsim.peak_heap_size").set_max(sim.peak_heap_size)
        registry.counter("netsim.wall_ns").inc(elapsed_ns)

    def _sample(
        self, window: CampaignWindow, make_bindings
    ) -> dict[str, CounterTrace]:
        """Run the polling loop over ``make_bindings(surface, port)``,
        renaming traces from the reduced rack's port back to the plan's."""
        start_wall = time.monotonic_ns()
        sim, surface = self._build(window)
        measured = self.map_port(window.port_name)
        bindings = make_bindings(surface, measured)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=self.scale.interval_ns),
            bindings,
            rng=self._window_seed(window, "sampler"),
        )
        report = sampler.run_in_sim(sim, self._duration_ns(window))
        self._publish_engine_stats(sim, time.monotonic_ns() - start_wall)
        traces: dict[str, CounterTrace] = {}
        for name, trace in report.traces.items():
            if name.startswith(f"{measured}."):
                trace.name = f"{window.port_name}.{name[len(measured) + 1:]}"
            trace.meta["backend"] = self.name
            trace.meta["measured_port"] = measured
            traces[trace.name] = trace
        return traces

    # -- protocol ------------------------------------------------------------

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        with timed_window(self.name):
            return self._sample(
                window, lambda surface, port: [bind_tx_bytes(surface, port)]
            )

    def sample_histogram_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        with timed_window(self.name):
            return self._sample(
                window,
                lambda surface, port: [
                    bind_tx_bytes(surface, port),
                    bind_tx_size_hist(surface, port),
                ],
            )

    def sample_rack_window(
        self, window: CampaignWindow, activity: float = 1.0
    ) -> RackWindow:
        """Whole-rack utilization, measured by stepping the simulation one
        synthesiser tick at a time and differencing every port's byte
        counters — the netsim analogue of the rack synthesiser's output."""
        start_wall = time.monotonic_ns()
        sim, surface = self._build(window, activity)
        n_ticks = self._duration_ns(window) // self.tick_ns
        if n_ticks <= 0:
            raise ConfigError("window shorter than one tick at netsim scale")
        down_ports = [f"down{i}" for i in range(self.scale.n_downlinks)]
        up_ports = [f"up{i}" for i in range(self.scale.n_uplinks)]
        down_rate = surface.port_rate_bps(down_ports[0])
        up_rate = surface.port_rate_bps(up_ports[0])
        down_capacity = down_rate * self.tick_ns / NS_PER_S / 8.0
        up_capacity = up_rate * self.tick_ns / NS_PER_S / 8.0

        def snapshot() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            return (
                np.array([surface.read_tx_bytes(p) for p in down_ports], dtype=np.int64),
                np.array([surface.read_tx_bytes(p) for p in up_ports], dtype=np.int64),
                np.array([surface.read_rx_bytes(p) for p in up_ports], dtype=np.int64),
            )

        down_util = np.empty((n_ticks, len(down_ports)))
        up_egress_util = np.empty((n_ticks, len(up_ports)))
        up_ingress_util = np.empty((n_ticks, len(up_ports)))
        prev_down, prev_up_tx, prev_up_rx = snapshot()
        for tick in range(n_ticks):
            sim.run_for(self.tick_ns)
            down, up_tx, up_rx = snapshot()
            down_util[tick] = (down - prev_down) / down_capacity
            up_egress_util[tick] = (up_tx - prev_up_tx) / up_capacity
            up_ingress_util[tick] = (up_rx - prev_up_rx) / up_capacity
            prev_down, prev_up_tx, prev_up_rx = down, up_tx, up_rx
        self._publish_engine_stats(sim, time.monotonic_ns() - start_wall)
        return RackWindow(
            app=window.rack_type,
            tick_ns=self.tick_ns,
            downlink_rate_bps=down_rate,
            uplink_rate_bps=up_rate,
            downlink_util=np.clip(down_util, 0.0, 1.0),
            uplink_egress_util=np.clip(up_egress_util, 0.0, 1.0),
            uplink_ingress_util=np.clip(up_ingress_util, 0.0, 1.0),
        )

    def sample_buffer_window(self, window: CampaignWindow) -> CounterTrace:
        start_wall = time.monotonic_ns()
        sim, surface = self._build(window)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=self.scale.buffer_interval_ns),
            [bind_peak_buffer(surface)],
            rng=self._window_seed(window, "sampler"),
        )
        report = sampler.run_in_sim(sim, self._duration_ns(window))
        self._publish_engine_stats(sim, time.monotonic_ns() - start_wall)
        trace = report.traces["shared_buffer.peak"]
        trace.meta["backend"] = self.name
        trace.meta["capacity_bytes"] = surface.buffer_capacity_bytes
        return trace
