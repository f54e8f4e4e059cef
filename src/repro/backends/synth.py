"""The analytical data plane behind the backend protocol.

Wraps :mod:`repro.synth` — the calibrated on/off synthesiser, the
whole-rack synthesizer, and the buffer response model — as a
:class:`~repro.backends.base.MeasurementBackend`.  Byte traces are
produced through :class:`repro.synth.dataset.SyntheticCampaignSource`
unchanged, so a campaign over this backend is byte-identical to the
pre-backend direct path (the parity suite pins this with golden CRCs).

All randomness is derived from ``(seed, window identity)`` via
:mod:`repro.core.seeding`, never from call order: byte/histogram/rack
streams for one window come from
``window_rng(seed, window.rack_id, window.hour)``, so serial, sharded,
and resumed campaigns agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.analysis.hotports import window_hot_port_counts
from repro.analysis.mad import resample_utilization
from repro.backends.base import DEFAULT_N_DOWNLINKS, DEFAULT_N_UPLINKS, timed_window
from repro.core.campaign import CampaignWindow
from repro.core.samples import CounterTrace, ValueKind
from repro.core.seeding import window_rng
from repro.errors import ConfigError
from repro.synth.buffermodel import BufferResponseModel
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS, AppProfile
from repro.synth.dataset import PORT_RATE_BPS, SyntheticCampaignSource
from repro.synth.onoff import OnOffGenerator
from repro.synth.rackmodel import (
    RackSynthesizer,
    RackWindow,
    synthesize_size_histogram,
    utilization_to_byte_trace,
)
from repro.units import ms

#: Fig 10's buffer-watermark cadence: one peak reading per 50 ms window.
BUFFER_WINDOW_NS = ms(50)
#: Hotness for buffer sampling is judged at 300 µs granularity (Fig 10).
HOT_PERIOD_TICKS = 12


def _profile(app: str) -> AppProfile:
    try:
        return APP_PROFILES[app]
    except KeyError:
        raise ConfigError(f"unknown rack type {app!r}") from None


@dataclass(frozen=True, slots=True)
class SynthBackend:
    """Measurement backend over the calibrated synthesiser."""

    name: ClassVar[str] = "synth"

    tick_ns: ClassVar[int] = BASE_TICK_NS
    rate_bps: ClassVar[float] = PORT_RATE_BPS
    n_downlinks: ClassVar[int] = DEFAULT_N_DOWNLINKS
    n_uplinks: ClassVar[int] = DEFAULT_N_UPLINKS

    seed: int = 0

    def _n_ticks(self, window: CampaignWindow) -> int:
        n_ticks = int(window.duration_ns // self.tick_ns)
        if n_ticks <= 0:
            raise ConfigError("window shorter than one synthesiser tick")
        return n_ticks

    def _rng(self, window: CampaignWindow) -> np.random.Generator:
        return window_rng(self.seed, window.rack_id, window.hour)

    # -- protocol ------------------------------------------------------------

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        with timed_window(self.name):
            return SyntheticCampaignSource(seed=self.seed).sample_window(window)

    def sample_histogram_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        profile = _profile(window.rack_type)
        port_profile = (
            profile.uplink if window.port_name.startswith("up") else profile.downlink
        )
        rng = self._rng(window)
        series = OnOffGenerator(port_profile).generate(self._n_ticks(window), rng)
        byte_trace = utilization_to_byte_trace(
            series.utilization,
            self.rate_bps,
            self.tick_ns,
            name=f"{window.port_name}.tx_bytes",
            start_ns=window.start_ns,
        )
        hist_trace = synthesize_size_histogram(
            series.utilization,
            series.hot,
            profile,
            self.rate_bps,
            self.tick_ns,
            rng,
            name=f"{window.port_name}.tx_size_hist",
            start_ns=window.start_ns,
        )
        return {byte_trace.name: byte_trace, hist_trace.name: hist_trace}

    def sample_rack_window(
        self, window: CampaignWindow, activity: float = 1.0
    ) -> RackWindow:
        synthesizer = RackSynthesizer(
            window.rack_type,
            n_downlinks=self.n_downlinks,
            n_uplinks=self.n_uplinks,
            downlink_rate_bps=self.rate_bps,
            uplink_rate_bps=self.rate_bps,
            tick_ns=self.tick_ns,
        )
        return synthesizer.synthesize(
            self._n_ticks(window), self._rng(window), activity=activity
        )

    def sample_buffer_window(self, window: CampaignWindow) -> CounterTrace:
        """Peak-watermark gauge trace: one normalised reading per 50 ms.

        Synthesizes the rack, counts simultaneously hot ports per 50 ms
        sub-window at 300 µs hotness granularity, and maps counts to peak
        occupancy through the app's calibrated buffer response.  Values
        are normalised occupancy scaled to 2^20 (the model works in
        [0, 1]; the integer scale keeps gauge traces integer-valued like
        the hardware watermark).
        """
        rng = self._rng(window)
        rack = self.sample_rack_window(window)
        util = rack.all_egress_util()
        period = HOT_PERIOD_TICKS
        n_periods = util.shape[0] // period
        if n_periods == 0:
            raise ConfigError("window shorter than one 300us hotness period")
        periods_per_window = max(1, int(BUFFER_WINDOW_NS // (self.tick_ns * period)))
        counts = window_hot_port_counts(
            resample_utilization(util, period), min(periods_per_window, n_periods)
        )
        model = BufferResponseModel.for_app(_profile(window.rack_type))
        peaks = model.sample(counts, rng)
        scale = 1 << 20
        timestamps = window.start_ns + (1 + np.arange(len(counts), dtype=np.int64)) * (
            self.tick_ns * period * periods_per_window
        )
        return CounterTrace(
            timestamps_ns=timestamps,
            values=np.round(peaks * scale).astype(np.int64),
            kind=ValueKind.GAUGE,
            name="shared_buffer.peak",
            meta={"normalisation": scale},
        )
