"""The measurement-backend protocol.

The paper's framework is one measurement discipline — poll counters per
campaign window (Sec 4.2) — applied to whatever data plane happens to be
underneath.  This module names that boundary: a
:class:`MeasurementBackend` opens a ``(rack_type, rack_id, window)``
triple and yields counter traces, packet-size histograms, whole-rack
utilization windows, and peak-buffer watermarks *through the existing
sampler semantics* (cumulative counters, true timestamps, misses allowed).

Everything above the protocol — campaigns, sharded parallel execution,
fault injection, checkpoint/resume, the gap-aware analysis — is
backend-agnostic.  Everything below it is one of two data planes today
(:class:`~repro.backends.synth.SynthBackend`,
:class:`~repro.backends.netsim.NetsimBackend`) and possibly more later
(pcap replay, an ns-3 bridge) without touching campaign or analysis code.

Seeding contract
----------------
A conforming backend derives **all** randomness from
``(backend seed, window identity)`` via :mod:`repro.core.seeding` — never
from call order, worker count, or shard assignment.  That single rule is
what makes serial, ``--workers N``, and checkpoint-resumed campaign runs
byte-identical for every backend.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.core.campaign import CampaignPlan, CampaignWindow
from repro.core.samples import CounterTrace
from repro.core.seeding import site_rng
from repro.errors import ConfigError
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.synth.rackmodel import RackWindow

#: Default ToR port layout shared by plan builders and backends: the
#: paper's racks expose 16 server downlinks and 4 fabric uplinks.
DEFAULT_N_DOWNLINKS = 16
DEFAULT_N_UPLINKS = 4


@contextmanager
def timed_window(backend_name: str) -> Iterator[None]:
    """Observe one window collection's wall latency into the backend's
    ``backend.<name>.sample_window_ns`` histogram.

    Wall-clock reads live here — on the backend boundary, outside the
    ``netsim``/``synth`` determinism-lint scope — and the measured time
    never feeds the data path, so traces stay byte-identical with
    telemetry on or off.
    """
    start_ns = time.monotonic_ns()
    try:
        yield
    finally:
        get_registry().histogram(f"backend.{backend_name}.sample_window_ns").observe(
            time.monotonic_ns() - start_ns
        )


def default_port_names() -> list[str]:
    """Canonical port naming: ``down0..down15`` then ``up0..up3``."""
    return [f"down{i}" for i in range(DEFAULT_N_DOWNLINKS)] + [
        f"up{i}" for i in range(DEFAULT_N_UPLINKS)
    ]


@runtime_checkable
class MeasurementBackend(Protocol):
    """A pluggable data plane under the campaign pipeline.

    The byte-counter method :meth:`sample_window` makes every backend a
    valid :class:`~repro.core.campaign.WindowSource`, so backends plug
    directly into :class:`~repro.core.campaign.MeasurementCampaign`,
    :class:`~repro.core.parallel.ParallelCampaign`, and
    :class:`~repro.faults.FaultyWindowSource` unchanged.  The remaining
    methods cover the paper's other two counter families (packet-size
    histograms, the shared-buffer watermark) plus the whole-rack
    utilization view the cross-port figures need.
    """

    #: Short identifier used by the CLI and experiment notes.
    name: str

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        """Single-port cumulative byte trace(s) for one campaign window."""
        ...  # pragma: no cover - protocol

    def sample_histogram_window(
        self, window: CampaignWindow
    ) -> dict[str, CounterTrace]:
        """Byte trace plus packet-size-histogram trace for one window.

        Returns ``{"<port>.tx_bytes": ..., "<port>.tx_size_hist": ...}``
        sampled on a shared timestamp grid, as a multi-counter poll group
        would record them (Sec 4.1).
        """
        ...  # pragma: no cover - protocol

    def sample_rack_window(
        self, window: CampaignWindow, activity: float = 1.0
    ) -> "RackWindow":
        """Whole-rack per-tick utilization for one campaign window.

        ``activity`` scales workload intensity (diurnal variation);
        backends that model load mechanistically scale their offered
        load, the synthesiser scales its calibrated profile.
        """
        ...  # pragma: no cover - protocol

    def sample_buffer_window(self, window: CampaignWindow) -> CounterTrace:
        """Peak shared-buffer watermark gauge trace for one window,
        polled at the paper's slower buffer-counter interval."""
        ...  # pragma: no cover - protocol


def single_port_plan(
    app: str,
    n_windows: int,
    window_duration_ns: int,
    seed: int = 0,
    port: str | None = None,
) -> CampaignPlan:
    """The per-application single-counter campaign every fig/tab
    experiment runs: ``n_windows`` windows, one measured port each.

    ``port=None`` mirrors the paper's campaign, which measured one
    *random* port per rack (~80 % of windows land on downlinks).  Port
    choice is keyed per ``(seed, app, window index)`` through
    :func:`repro.core.seeding.site_rng`, so it is independent of
    execution order and worker count — the same crc32 site scheme the
    backends use for trace content.
    """
    if n_windows <= 0:
        raise ConfigError("need at least one window")
    if window_duration_ns <= 0:
        raise ConfigError("window duration must be positive")
    port_names = default_port_names()
    windows = []
    for index in range(n_windows):
        if port is None:
            rng = site_rng(seed, f"{app}|w{index}|port")
            port_name = port_names[int(rng.integers(len(port_names)))]
        else:
            port_name = port
        windows.append(
            CampaignWindow(
                rack_id=f"{app}-w{index}",
                rack_type=app,
                port_name=port_name,
                hour=index,
                start_ns=0,
                duration_ns=window_duration_ns,
            )
        )
    return CampaignPlan(windows=tuple(windows))


def rack_window_spec(
    app: str,
    duration_ns: int,
    experiment: str = "rack",
    index: int = 0,
) -> CampaignWindow:
    """One ad-hoc campaign window for whole-rack / histogram sampling.

    The ``(experiment, index)`` pair lands in the window's identity
    (``rack_id`` / ``hour``), so different experiments and different
    spans of the same experiment draw independent site-keyed streams.
    """
    if duration_ns <= 0:
        raise ConfigError("window duration must be positive")
    return CampaignWindow(
        rack_id=f"{app}-{experiment}",
        rack_type=app,
        port_name="down0",
        hour=index,
        start_ns=0,
        duration_ns=duration_ns,
    )
