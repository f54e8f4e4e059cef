"""Pipeline instrumentation: the hard acceptance properties.

* Serial and ``--workers 4`` campaigns report identical merged counters.
* Traces are byte-identical with telemetry enabled and disabled.
* Campaign/sampler/traceio/fault tallies reach the registry.
"""

import zlib

import numpy as np
import pytest
from factories import SMOKE_SCALE

from repro.backends import SynthBackend
from repro.backends.base import single_port_plan
from repro.core.campaign import (
    CampaignWindow,
    MeasurementCampaign,
    RetryPolicy,
    WindowStatus,
)
from repro.core.counters import CounterKind, CounterSpec
from repro.core.parallel import ParallelCampaign
from repro.core.sampler import HighResSampler, SamplerConfig
from repro.core.samples import CounterTrace, ValueKind
from repro.core.traceio import load_traces, save_traces
from repro.errors import CollectionError
from repro.faults import FaultInjector, FaultPlan
from repro.telemetry.metrics import MetricsRegistry, scoped_registry, set_enabled
from repro.units import gbps, seconds, us


def make_trace(n=4, name="p.tx_bytes"):
    return CounterTrace(
        timestamps_ns=np.arange(1, n + 1, dtype=np.int64) * 1000,
        values=np.arange(n, dtype=np.int64) * 100,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=gbps(10),
    )


def trace_dict_crc(traces: dict) -> int:
    crc = 0
    for name in sorted(traces):
        trace = traces[name]
        crc = zlib.crc32(np.asarray(trace.values).tobytes(), crc)
        crc = zlib.crc32(np.asarray(trace.timestamps_ns).tobytes(), crc)
    return crc


class TestSerialParallelAgreement:
    def _run(self, workers: int) -> dict:
        plan = single_port_plan("web", 6, seconds(1), seed=3)
        backend = SynthBackend(seed=3)
        with scoped_registry() as registry:
            campaign = ParallelCampaign(plan, backend, workers=workers)
            campaign.run()
            return registry.snapshot()

    def test_counters_agree_at_any_worker_count(self):
        serial = self._run(1)
        parallel = self._run(4)
        assert serial["counters"] == parallel["counters"]
        assert serial["counters"]["campaign.windows_ok"] == 6
        # one rack per window in single_port_plan, and sharding is by rack
        assert serial["counters"]["parallel.shards_completed"] == 6

    def test_histogram_observation_counts_agree(self):
        # Wall-clock latencies differ per bucket across runs, but the
        # number of observations is an execution invariant.
        serial = self._run(1)
        parallel = self._run(4)
        serial_hist = serial["histograms"]["backend.synth.sample_window_ns"]
        parallel_hist = parallel["histograms"]["backend.synth.sample_window_ns"]
        assert serial_hist["count"] == parallel_hist["count"] == 6


class TestTelemetryNeverTouchesData:
    def test_synth_traces_identical_enabled_vs_disabled(self):
        window = single_port_plan("cache", 1, seconds(1), seed=7).windows[0]
        backend = SynthBackend(seed=7)
        with scoped_registry():
            enabled_crc = trace_dict_crc(backend.sample_window(window))
        try:
            set_enabled(False)
            disabled_crc = trace_dict_crc(backend.sample_window(window))
        finally:
            set_enabled(True)
        assert enabled_crc == disabled_crc

    def test_netsim_traces_identical_enabled_vs_disabled(self):
        from repro.backends import NetsimBackend
        from repro.units import ms

        plan = single_port_plan("web", 1, ms(6), seed=0, port="down0")
        backend = NetsimBackend(seed=0, scale=SMOKE_SCALE)
        with scoped_registry():
            enabled_crc = trace_dict_crc(backend.sample_window(plan.windows[0]))
        try:
            set_enabled(False)
            disabled_crc = trace_dict_crc(backend.sample_window(plan.windows[0]))
        finally:
            set_enabled(True)
        assert enabled_crc == disabled_crc


class TestNetsimTelemetry:
    """Engine rates are derived from counters, so they survive shard merges."""

    @pytest.fixture(scope="class")
    def snapshots(self):
        from repro.backends import NetsimBackend
        from repro.units import ms

        snapshots = []
        for seed in (0, 1):
            window = single_port_plan("web", 1, ms(2), seed=seed, port="down0").windows[0]
            with scoped_registry() as registry:
                NetsimBackend(seed=seed, scale=SMOKE_SCALE).sample_window(window)
                snapshots.append(registry.snapshot())
        return snapshots

    def test_window_counts_events_and_wall_time(self, snapshots):
        for snapshot in snapshots:
            assert snapshot["counters"]["netsim.events_processed"] > 0
            assert snapshot["counters"]["netsim.wall_ns"] > 0

    def test_merged_shards_sum_both_counters(self, snapshots):
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        counters = merged.snapshot()["counters"]
        for name in ("netsim.events_processed", "netsim.wall_ns"):
            assert counters[name] == sum(s["counters"][name] for s in snapshots)

    def test_no_rate_metric(self, snapshots):
        for snapshot in snapshots:
            names = [name for kind in ("counters", "gauges", "histograms") for name in snapshot[kind]]
            assert not any("events_per_sec" in name for name in names)


class TestSamplerTelemetry:
    def test_timing_stats_published(self, registry):
        from repro.core.counters import CounterBinding

        spec = CounterSpec("p.tx_bytes", CounterKind.BYTE, rate_bps=gbps(10))
        sampler = HighResSampler(
            SamplerConfig(interval_ns=us(25)),
            [CounterBinding(spec=spec, read=lambda: 0)],
            rng=0,
        )
        stats = sampler.simulate_timing(seconds(1))
        counters = registry.snapshot()["counters"]
        assert counters["sampler.instants_scheduled"] == stats.scheduled
        assert counters["sampler.reads_taken"] == stats.taken
        assert counters["sampler.instants_missed"] == stats.missed
        assert counters["sampler.read_overruns"] == stats.overruns
        assert stats.scheduled > 0


class _FlakySource:
    """web-w0 fails once (degraded after retry); web-w1 always fails."""

    def __init__(self):
        self.attempts: dict[str, int] = {}

    def sample_window(self, window: CampaignWindow):
        n = self.attempts.get(window.rack_id, 0) + 1
        self.attempts[window.rack_id] = n
        if window.rack_id.endswith("w0") and n == 1:
            raise CollectionError("transient")
        if window.rack_id.endswith("w1"):
            raise CollectionError("persistent")
        return {"p.tx_bytes": make_trace()}


class TestCampaignTelemetry:
    def test_window_status_and_retry_counters(self, registry):
        plan = single_port_plan("web", 3, seconds(1))
        campaign = MeasurementCampaign(
            plan,
            _FlakySource(),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        result = campaign.run()
        counters = registry.snapshot()["counters"]
        assert counters["campaign.windows_ok"] == 1
        assert counters["campaign.windows_degraded"] == 1
        assert counters["campaign.windows_failed"] == 1
        # w0 retried once, w1 retried once before exhausting its budget
        assert counters["campaign.window_retries"] == 2
        assert result.status_counts()[WindowStatus.FAILED.value] == 1

    def test_checkpoint_bytes_counter(self, registry, tmp_path):
        plan = single_port_plan("web", 1, seconds(1))

        class Source:
            def sample_window(self, window):
                return {"p.tx_bytes": make_trace()}

        MeasurementCampaign(plan, Source(), checkpoint_dir=tmp_path).run()
        counters = registry.snapshot()["counters"]
        archive = tmp_path / "window_00000.npz"
        assert counters["campaign.checkpoint_bytes"] == archive.stat().st_size


class TestTraceioTelemetry:
    def test_write_and_verify_counters(self, registry, tmp_path):
        traces = {"p.tx_bytes": make_trace()}
        save_traces(tmp_path / "t.npz", traces)
        load_traces(tmp_path / "t.npz")
        counters = registry.snapshot()["counters"]
        assert counters["traceio.archives_written"] == 1
        assert counters["traceio.bytes_written"] == (tmp_path / "t.npz").stat().st_size
        assert counters["traceio.crc_verified"] == 1

    def test_crc_failure_counter(self, registry, tmp_path):
        import numpy as np_mod

        path = tmp_path / "t.npz"
        save_traces(path, {"p.tx_bytes": make_trace()})
        # corrupt the stored values in place, keeping the zip readable
        loaded = dict(np_mod.load(path, allow_pickle=False))
        loaded["t0.values"] = loaded["t0.values"] + 1
        np_mod.savez_compressed(path, **loaded)
        with pytest.raises(Exception):
            load_traces(path)
        counters = registry.snapshot()["counters"]
        assert counters["traceio.crc_failures"] == 1


class TestFaultTelemetry:
    def test_injector_tallies_mirrored(self, registry):
        injector = FaultInjector(FaultPlan(seed=5, sample_loss_rate=0.5))
        trace = make_trace(n=200)
        degraded = injector.degrade_trace(trace, "site-a")
        dropped = degraded.meta["samples_dropped"]
        assert dropped > 0
        assert len(degraded) == len(trace) - dropped
        counters = registry.snapshot()["counters"]
        assert counters["faults.samples_dropped"] == dropped
