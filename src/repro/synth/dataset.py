"""Synthetic campaign dataset generation.

Bridges the synthesiser to the campaign machinery in
:mod:`repro.core.campaign`: a :class:`SyntheticCampaignSource` plays the
role of the production switch fleet, producing counter traces for each
(rack, hour) window the plan requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.campaign import CampaignPlan, CampaignWindow
from repro.core.samples import CounterTrace
from repro.core.seeding import window_rng
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS
from repro.synth.onoff import OnOffGenerator
from repro.synth.rackmodel import utilization_to_byte_trace
from repro.units import gbps, seconds


@dataclass(slots=True)
class SyntheticCampaignSource:
    """Window source backed by the per-port on/off synthesiser.

    Produces single-port byte traces — the paper's single-counter
    campaigns (Sec 4.1: highest-resolution results use one counter per
    campaign).  Port names starting with ``up`` use the app's uplink
    profile; anything else the downlink profile.
    """

    seed: int = 0
    tick_ns: int = BASE_TICK_NS
    rate_bps: float = gbps(10)

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        try:
            profile = APP_PROFILES[window.rack_type]
        except KeyError:
            raise ConfigError(f"unknown rack type {window.rack_type!r}") from None
        port_profile = (
            profile.uplink if window.port_name.startswith("up") else profile.downlink
        )
        # Window identity -> deterministic, independent stream, so serial,
        # sharded-parallel, and resumed runs all see the same randomness.
        rng = window_rng(self.seed, window.rack_id, window.hour)
        n_ticks = window.duration_ns // self.tick_ns
        series = OnOffGenerator(port_profile).generate(int(n_ticks), rng)
        trace = utilization_to_byte_trace(
            series.utilization,
            self.rate_bps,
            self.tick_ns,
            name=f"{window.port_name}.tx_bytes",
            start_ns=window.start_ns,
        )
        return {trace.name: trace}


def default_plan(
    racks_per_app: int = 10,
    hours: int = 24,
    window_duration_ns: int = seconds(120),
    seed: int = 0,
    apps: tuple[str, ...] = ("web", "cache", "hadoop"),
    n_downlinks: int = 16,
    n_uplinks: int = 4,
) -> CampaignPlan:
    """The paper's campaign: ``racks_per_app`` racks per application, one
    random port per rack, one random window per hour."""
    rng = np.random.default_rng(seed)
    racks = [
        (f"{app}-rack{i}", app) for app in apps for i in range(racks_per_app)
    ]
    port_names = [f"down{i}" for i in range(n_downlinks)] + [
        f"up{i}" for i in range(n_uplinks)
    ]

    def choose_port(_rack_id: str, rng: np.random.Generator) -> str:
        return port_names[int(rng.integers(len(port_names)))]

    return CampaignPlan.generate(
        racks=racks,
        port_chooser=choose_port,
        rng=rng,
        hours=hours,
        window_duration_ns=window_duration_ns,
    )

