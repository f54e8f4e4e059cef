"""Backend-parity suite: the campaign pipeline is a faithful transport.

Three guarantees, per ISSUE/DESIGN:

* Running SynthBackend through the campaign pipeline is byte-identical
  to the pre-backend direct synthesiser path (pinned with golden CRCs).
* Serial and sharded-parallel collection agree byte for byte, for
  either backend (worker-count-invariant seeding).
* NetsimBackend runs through the same campaign machinery — including
  fault injection — and produces traces the burst analysis accepts.
"""

import zlib

import numpy as np
import pytest
from factories import SMOKE_SCALE

from repro.analysis.bursts import extract_bursts_from_trace
from repro.backends import NetsimBackend, SynthBackend
from repro.backends.base import rack_window_spec, single_port_plan
from repro.core.campaign import MeasurementCampaign, RetryPolicy, WindowStatus
from repro.core.parallel import ParallelCampaign
from repro.experiments.common import app_byte_traces
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.synth.dataset import SyntheticCampaignSource
from repro.synth.rackmodel import RackSynthesizer
from repro.units import ms, seconds

#: crc32 over (values || timestamps) of every trace of
#: ``app_byte_traces(app, seed=0, n_windows=4, window_s=1.0)``.  These pin
#: the synth backend's output through the campaign pipeline; a change here
#: is a reproducibility break, not a test to update casually.
GOLDEN_SYNTH_CRCS = {
    "web": 0x4BABC719,
    "cache": 0x3BC94665,
    "hadoop": 0xEEB87BCD,
}

#: Netsim-backend golden CRCs: ``NetsimBackend(seed=0,
#: scale=SMOKE_SCALE)`` sampling ``single_port_plan(app, 2,
#: ms(6), seed=0, port="down0")``.  Captured before the event-engine
#: performance pass; every optimisation of the hot path must keep these
#: byte-identical (same seeds → same traces is the simulator's core
#: determinism contract).  A change here is a reproducibility break, not
#: a test to update casually.
GOLDEN_NETSIM_WINDOW_CRCS = {
    ("web", 0): 0x39DFBC09,
    ("web", 1): 0x53D95016,
    ("cache", 0): 0xF7F1E90B,
    ("cache", 1): 0x444BB5E3,
    ("hadoop", 0): 0xC0C4E954,
    ("hadoop", 1): 0x3D080C39,
}
GOLDEN_NETSIM_HIST_CRCS = {
    "web": 0x93E4DA7D,
    "cache": 0x0BC46082,
    "hadoop": 0xBDC75F44,
}
#: Synth-backend buffer golden CRCs: ``SynthBackend(seed=0)`` sampling
#: ``rack_window_spec(app, ms(d), experiment="buffer", index=i)`` for
#: ``(i, d)`` in ``enumerate((1, 20, 130))`` — windows shorter than,
#: and spanning several, 50 ms watermark readings.
GOLDEN_SYNTH_BUFFER_CRCS = {
    "web": 0x0F962B25,
    "cache": 0x23AFB8FD,
    "hadoop": 0xC4D0B05C,
}
#: Rack-matrix golden CRCs: crc32 over the ``downlink_util``,
#: ``uplink_egress_util`` and ``uplink_ingress_util`` bytes of
#: ``RackSynthesizer(app).synthesize(n, default_rng(0), activity=a)``.
#: Captured before the rack-synthesis performance pass; rewrites of the
#: rack model's draw loops must keep these byte-identical.
GOLDEN_SYNTH_RACK_CRCS = {
    ("cache", 7, 1.0): 0x47249DE5,
    ("cache", 7, 0.3): 0x193D9480,
    ("cache", 40_000, 1.0): 0x1A274BC7,
    ("cache", 40_000, 0.3): 0x09D9DCC2,
    ("hadoop", 7, 1.0): 0x62CC3C93,
    ("hadoop", 7, 0.3): 0x8B16303A,
    ("hadoop", 40_000, 1.0): 0x00C76DB4,
    ("hadoop", 40_000, 0.3): 0xDD71C7F3,
    ("web", 7, 1.0): 0xDD57BF23,
    ("web", 7, 0.3): 0x82117D7F,
    ("web", 40_000, 1.0): 0xD1299084,
    ("web", 40_000, 0.3): 0xFD42FCF1,
}
#: crc32 of ``RackSynthesizer("hadoop").uplink_matrix(40_000,
#: default_rng(0), capacity_factors=[1, 1, 0, 0.5])``: the weighted-ECMP
#: path ext-failures takes.
GOLDEN_SYNTH_WEIGHTED_UPLINK_CRC = 0xEE9BCF01
GOLDEN_NETSIM_BUFFER_CRCS = {
    "web": 0x214AAF97,
    "cache": 0x5673DFB3,
    "hadoop": 0x92E7AAFD,
}


def traces_crc(traces) -> int:
    crc = 0
    for trace in traces:
        crc = zlib.crc32(trace.values.tobytes(), crc)
        crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
    return crc


def trace_dict_crc(traces: dict) -> int:
    """crc32 over (values || timestamps) of every trace, by sorted name."""
    crc = 0
    for name in sorted(traces):
        trace = traces[name]
        crc = zlib.crc32(trace.values.tobytes(), crc)
        crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
    return crc


def assert_traces_equal(a, b):
    assert [t.name for t in a] == [t.name for t in b]
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.values, tb.values)
        assert np.array_equal(ta.timestamps_ns, tb.timestamps_ns)


class TestSynthParity:
    @pytest.mark.parametrize("app", sorted(GOLDEN_SYNTH_CRCS))
    def test_campaign_pipeline_matches_direct_path(self, app):
        via_campaign = app_byte_traces(app, seed=0, n_windows=4, window_s=1.0)
        source = SyntheticCampaignSource(seed=0)
        direct = [
            trace
            for window in single_port_plan(app, 4, seconds(1.0), seed=0).windows
            for trace in source.sample_window(window).values()
        ]
        assert_traces_equal(via_campaign, direct)

    @pytest.mark.parametrize("app", sorted(GOLDEN_SYNTH_CRCS))
    def test_golden_crcs(self, app):
        traces = app_byte_traces(app, seed=0, n_windows=4, window_s=1.0)
        assert traces_crc(traces) == GOLDEN_SYNTH_CRCS[app]

    def test_serial_vs_parallel_byte_identical(self):
        serial = app_byte_traces("web", seed=0, n_windows=4, window_s=1.0, workers=1)
        sharded = app_byte_traces("web", seed=0, n_windows=4, window_s=1.0, workers=4)
        assert_traces_equal(serial, sharded)

    @pytest.mark.parametrize("app", sorted(GOLDEN_SYNTH_BUFFER_CRCS))
    def test_buffer_trace_crcs(self, app):
        backend = SynthBackend(seed=0)
        crc = 0
        for index, duration_ms in enumerate((1, 20, 130)):
            window = rack_window_spec(app, ms(duration_ms), experiment="buffer", index=index)
            trace = backend.sample_buffer_window(window)
            crc = zlib.crc32(trace.values.tobytes(), crc)
            crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
        assert crc == GOLDEN_SYNTH_BUFFER_CRCS[app]

    @pytest.mark.parametrize(("app", "n_ticks", "activity"), sorted(GOLDEN_SYNTH_RACK_CRCS))
    def test_rack_matrix_crcs(self, app, n_ticks, activity):
        window = RackSynthesizer(app).synthesize(
            n_ticks, np.random.default_rng(0), activity=activity
        )
        crc = 0
        for matrix in (
            window.downlink_util, window.uplink_egress_util, window.uplink_ingress_util
        ):
            crc = zlib.crc32(matrix.tobytes(), crc)
        assert crc == GOLDEN_SYNTH_RACK_CRCS[(app, n_ticks, activity)]

    def test_weighted_uplink_matrix_crc(self):
        util = RackSynthesizer("hadoop").uplink_matrix(
            40_000, np.random.default_rng(0), capacity_factors=np.array([1, 1, 0, 0.5])
        )
        assert zlib.crc32(util.tobytes()) == GOLDEN_SYNTH_WEIGHTED_UPLINK_CRC

    def test_explicit_backend_instance_accepted(self):
        by_name = app_byte_traces("cache", seed=0, n_windows=2, window_s=1.0,
                                  backend="synth")
        by_instance = app_byte_traces("cache", seed=0, n_windows=2, window_s=1.0,
                                      backend=SynthBackend(seed=0))
        assert_traces_equal(by_name, by_instance)


class TestNetsimGoldenDeterminism:
    """Pin netsim per-window traces bit-for-bit across code changes."""

    def backend(self):
        return NetsimBackend(seed=0, scale=SMOKE_SCALE)

    def plan(self, app):
        return single_port_plan(app, 2, ms(6), seed=0, port="down0")

    @pytest.mark.parametrize("app", sorted(GOLDEN_NETSIM_HIST_CRCS))
    def test_window_trace_crcs(self, app):
        backend = self.backend()
        plan = self.plan(app)
        for index, window in enumerate(plan.windows):
            crc = trace_dict_crc(backend.sample_window(window))
            assert crc == GOLDEN_NETSIM_WINDOW_CRCS[(app, index)], (
                f"{app} window {index}: netsim traces changed byte-for-byte "
                "(determinism regression or an intentional model change)"
            )

    @pytest.mark.parametrize("app", sorted(GOLDEN_NETSIM_HIST_CRCS))
    def test_histogram_trace_crcs(self, app):
        backend = self.backend()
        window = self.plan(app).windows[0]
        crc = trace_dict_crc(backend.sample_histogram_window(window))
        assert crc == GOLDEN_NETSIM_HIST_CRCS[app]

    @pytest.mark.parametrize("app", sorted(GOLDEN_NETSIM_BUFFER_CRCS))
    def test_buffer_trace_crcs(self, app):
        backend = self.backend()
        window = self.plan(app).windows[0]
        trace = backend.sample_buffer_window(window)
        crc = zlib.crc32(trace.values.tobytes())
        crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
        assert crc == GOLDEN_NETSIM_BUFFER_CRCS[app]

    def test_repeat_sampling_is_bit_identical(self):
        # Same backend object, same window, sampled twice: stateless.
        backend = self.backend()
        window = self.plan("cache").windows[0]
        first = backend.sample_window(window)
        second = backend.sample_window(window)
        assert trace_dict_crc(first) == trace_dict_crc(second)


class TestNetsimThroughCampaign:
    def smoke_backend(self, seed=0):
        return NetsimBackend(seed=seed, scale=SMOKE_SCALE)

    def plan(self, app="web", n_windows=2):
        return single_port_plan(app, n_windows, ms(6), seed=0, port="down0")

    def test_campaign_completes_and_traces_analyse(self):
        # hadoop's steady transfer rate guarantees traffic even in a 6 ms
        # smoke window (web's 60 req/s often fits zero requests in 6 ms)
        outcome = MeasurementCampaign(self.plan(app="hadoop"), self.smoke_backend()).run()
        assert outcome.completion_fraction == 1.0
        total_bytes = 0
        for _window, traces in outcome.iter_windows():
            trace = traces["down0.tx_bytes"]
            assert trace.meta["backend"] == "netsim"
            # cumulative counter semantics: non-decreasing
            assert (np.diff(trace.values) >= 0).all()
            total_bytes += int(trace.values[-1] - trace.values[0])
            stats = extract_bursts_from_trace(trace)
            assert stats.n_bursts >= 0  # analysis accepts netsim traces
        assert total_bytes > 0

    def test_serial_vs_parallel_byte_identical(self):
        plan = self.plan(n_windows=2)
        serial = MeasurementCampaign(plan, self.smoke_backend()).run()
        parallel = ParallelCampaign(plan, self.smoke_backend(), workers=2).run()
        serial_traces = [t for _w, ts in serial.iter_windows() for t in ts.values()]
        parallel_traces = [t for _w, ts in parallel.iter_windows() for t in ts.values()]
        assert_traces_equal(serial_traces, parallel_traces)

    def test_fault_injection_composes(self):
        injector = FaultInjector(
            FaultPlan(seed=1, window_failure_rate=0.5, transient_fraction=1.0)
        )
        source = FaultyWindowSource(self.smoke_backend(), injector)
        outcome = MeasurementCampaign(
            self.plan(n_windows=2), source, retry=RetryPolicy(max_attempts=3, backoff_s=0.0)
        ).run()
        # transient failures retry to completion; the wrapper never
        # changes what the backend produces on success
        assert outcome.completion_fraction == 1.0
        counts = outcome.status_counts()
        assert counts[WindowStatus.FAILED.value] == 0
