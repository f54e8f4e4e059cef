"""End-to-end pipeline: workload -> switch -> sampler -> analysis.

These are the paper's measurement pipeline run in miniature on the
packet simulator: traffic generated by an application model, counters
polled by the high-resolution framework, and the resulting traces pushed
through the burst analyses.
"""

import numpy as np
import pytest

from repro.analysis import extract_bursts_from_trace, fit_transition_matrix
from repro.analysis.bursts import trace_hot_mask
from repro.analysis.packetsizes import split_histogram_by_burst
from repro.core import HighResSampler, SamplerConfig
from repro.core.counters import (
    bind_peak_buffer,
    bind_tx_bytes,
    bind_tx_size_hist,
)
from repro.netsim import (
    RackConfig,
    Simulator,
    SwitchCounterSurface,
    TorSwitchConfig,
    build_rack,
)
from repro.units import ms, us
from repro.workloads import CacheWorkload, HadoopWorkload, WebWorkload


@pytest.fixture(scope="module")
def measured_web():
    """A web rack measured for 100 ms at 25 us."""
    sim = Simulator(seed=21)
    rack = build_rack(
        sim,
        RackConfig(
            name="t",
            switch=TorSwitchConfig(n_downlinks=8, n_uplinks=4),
            n_remote_hosts=24,
        ),
    )
    from repro.workloads import WebConfig

    WebWorkload(rack, WebConfig(request_rate_per_s=60, fanout=12), rng=3).install()
    sim.run_for(ms(30))
    surface = SwitchCounterSurface(rack.tor)
    bindings = [
        bind_tx_bytes(surface, "down0"),
        bind_tx_size_hist(surface, "down0"),
        bind_peak_buffer(surface),
    ]
    sampler = HighResSampler(SamplerConfig(interval_ns=us(50)), bindings, rng=5)
    report = sampler.run_in_sim(sim, ms(100))
    return rack, report


class TestMeasurementPipeline:
    def test_traces_present(self, measured_web):
        _, report = measured_web
        assert set(report.traces) == {
            "down0.tx_bytes",
            "down0.tx_size_hist",
            "shared_buffer.peak",
        }

    def test_burst_analysis_runs(self, measured_web):
        _, report = measured_web
        stats = extract_bursts_from_trace(report.traces["down0.tx_bytes"])
        assert stats.n_samples > 1500
        assert 0.0 <= stats.hot_fraction < 0.9

    def test_histogram_and_bytes_share_timestamps(self, measured_web):
        _, report = measured_web
        byte_trace = report.traces["down0.tx_bytes"]
        hist_trace = report.traces["down0.tx_size_hist"]
        assert np.array_equal(byte_trace.timestamps_ns, hist_trace.timestamps_ns)
        split = split_histogram_by_burst(byte_trace, hist_trace)
        assert split.inside.sum() in (0.0, pytest.approx(1.0))
        assert split.outside.sum() == pytest.approx(1.0)

    def test_peak_buffer_gauge(self, measured_web):
        _, report = measured_web
        gauge = report.traces["shared_buffer.peak"]
        values = gauge.gauge_values()
        assert values.max() > 0  # traffic did queue somewhere
        assert values.min() >= 0

    def test_byte_conservation_between_surface_and_trace(self, measured_web):
        rack, report = measured_web
        trace = report.traces["down0.tx_bytes"]
        # last sample cannot exceed the live counter now
        assert trace.values[-1] <= rack.tor.downlink_ports[0].counters.tx_bytes

    def test_markov_fit_runs_on_real_trace(self, measured_web):
        _, report = measured_web
        mask = trace_hot_mask(report.traces["down0.tx_bytes"])
        if mask.any() and not mask.all():
            matrix = fit_transition_matrix(mask)
            assert 0.0 <= matrix.p01 <= 1.0


class TestCoarseVsFine:
    def test_microbursts_invisible_to_snmp(self):
        """The Sec 3 story on live data: fine sees hot, coarse does not."""
        sim = Simulator(seed=8)
        rack = build_rack(
            sim,
            RackConfig(
                name="t",
                switch=TorSwitchConfig(n_downlinks=4, n_uplinks=2),
                n_remote_hosts=16,
            ),
        )
        # short intense incast bursts, then silence
        for index, remote in enumerate(rack.remote_hosts[:8]):
            sim.schedule(ms(5) * index, lambda r=remote: r.send_flow(rack.servers[0].name, 120_000))
        surface = SwitchCounterSurface(rack.tor)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=us(25)), [bind_tx_bytes(surface, "down0")], rng=2
        )
        report = sampler.run_in_sim(sim, ms(80))
        trace = report.traces["down0.tx_bytes"]
        fine_hot = (trace.utilization() > 0.5).mean()
        coarse = trace.decimate(ms(40) // us(25))  # what a 40 ms poller records
        assert trace.utilization().max() > 0.5  # µbursts visible at 25 us
        assert coarse.utilization().max() < 0.5  # invisible at 40 ms
        assert fine_hot < 0.5


class TestMultiAppBehaviour:
    @pytest.mark.parametrize(
        "workload_class,expect_uplink_bias",
        [(CacheWorkload, True), (HadoopWorkload, False)],
    )
    def test_directionality_on_simulator(self, workload_class, expect_uplink_bias):
        """Fig 9's direction bias emerges from the packet simulator too."""
        sim = Simulator(seed=13)
        rack = build_rack(
            sim,
            RackConfig(
                name="t",
                switch=TorSwitchConfig(n_downlinks=8, n_uplinks=2),
                n_remote_hosts=24,
            ),
        )
        workload_class(rack, rng=4).install()
        sim.run_for(ms(120))
        up_tx = sum(p.counters.tx_bytes for p in rack.tor.uplink_ports)
        down_tx = sum(p.counters.tx_bytes for p in rack.tor.downlink_ports)
        if expect_uplink_bias:
            assert up_tx > down_tx
        else:
            assert down_tx > up_tx * 0.5  # hadoop pushes heavily to servers
