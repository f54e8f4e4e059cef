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

#: Line rate of every synthesised port: the measured racks' 10 Gb/s
#: server links.  Windows are synthesised at ``BASE_TICK_NS``.
PORT_RATE_BPS = gbps(10)


@dataclass(slots=True)
class SyntheticCampaignSource:
    """Window source backed by the per-port on/off synthesiser.

    Produces single-port byte traces — the paper's single-counter
    campaigns (Sec 4.1: highest-resolution results use one counter per
    campaign).  Port names starting with ``up`` use the app's uplink
    profile; anything else the downlink profile.
    """

    seed: int = 0

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
        n_ticks = window.duration_ns // BASE_TICK_NS
        series = OnOffGenerator(port_profile).generate(int(n_ticks), rng)
        trace = utilization_to_byte_trace(
            series.utilization,
            PORT_RATE_BPS,
            BASE_TICK_NS,
            name=f"{window.port_name}.tx_bytes",
            start_ns=window.start_ns,
        )
        return {trace.name: trace}


def default_plan(
    racks_per_app: int = 10,
    hours: int = 24,
    window_duration_ns: int = seconds(120),
    seed: int = 0,
) -> CampaignPlan:
    """The paper's campaign (Sec 4.2): ``racks_per_app`` web, cache and
    hadoop racks, one random port per rack, and one random window inside
    every hour."""
    # Imported here: repro.backends imports this module.
    from repro.backends.base import default_port_names

    if hours <= 0:
        raise ConfigError("campaign needs at least one hour")
    hour_ns = seconds(3600)
    if window_duration_ns <= 0 or window_duration_ns > hour_ns:
        raise ConfigError("window must fit within an hour")
    rng = np.random.default_rng(seed)
    port_names = default_port_names()
    windows: list[CampaignWindow] = []
    for app in ("web", "cache", "hadoop"):
        for i in range(racks_per_app):
            port = port_names[int(rng.integers(len(port_names)))]
            for hour in range(hours):
                offset = int(rng.integers(0, hour_ns - window_duration_ns + 1))
                windows.append(
                    CampaignWindow(
                        rack_id=f"{app}-rack{i}",
                        rack_type=app,
                        port_name=port,
                        hour=hour,
                        start_ns=hour * hour_ns + offset,
                        duration_ns=window_duration_ns,
                    )
                )
    return CampaignPlan(windows=tuple(windows))
