"""Rack synthesizer tests."""

import pickle

import numpy as np
import pytest

from repro.backends import SynthBackend, rack_window_spec
from repro.core.samples import ValueKind
from repro.errors import ConfigError
from repro.experiments.registry import run_experiment
from repro.synth.calibration import APP_PROFILES
from repro.synth.rackmodel import (
    RackSynthesizer,
    RackWindow,
    _ecmp_weight_segments,
    synthesize_size_histogram,
    utilization_to_byte_trace,
)
from repro.units import gbps, ms, us


class TestByteTraceConversion:
    def test_roundtrip_utilization(self, rng):
        util = rng.random(1000) * 0.9
        trace = utilization_to_byte_trace(util, gbps(10), us(25), name="x")
        recovered = trace.utilization()
        assert len(recovered) == len(util)
        # integer-rounding error is < 1 byte / 31250 per tick
        assert np.abs(recovered - util).max() < 1e-3

    def test_trace_properties(self, rng):
        trace = utilization_to_byte_trace(rng.random(10), gbps(10), us(25), name="p")
        assert trace.kind is ValueKind.CUMULATIVE
        assert trace.rate_bps == gbps(10)
        assert np.all(np.diff(trace.values) >= 0)
        assert len(trace) == 11  # n + 1 samples

    def test_start_offset(self, rng):
        trace = utilization_to_byte_trace(
            rng.random(5), gbps(10), us(25), start_ns=1_000_000
        )
        assert trace.timestamps_ns[0] == 1_000_000


class TestEcmpSegments:
    def test_shares_sum_to_one(self, rng):
        shares = _ecmp_weight_segments(5000, 4, 8, 300.0, 1.0, rng)
        assert shares.shape == (5000, 4)
        assert np.allclose(shares.sum(axis=1), 1.0)

    def test_fewer_flows_more_imbalance(self, rng):
        few = _ecmp_weight_segments(20_000, 4, 2, 500.0, 1.0, np.random.default_rng(1))
        many = _ecmp_weight_segments(20_000, 4, 64, 500.0, 1.0, np.random.default_rng(1))
        assert few.max(axis=1).mean() > many.max(axis=1).mean()

    def test_churn_changes_assignment(self, rng):
        shares = _ecmp_weight_segments(50_000, 4, 3, 100.0, 1.0, rng)
        # with lifetime 100 ticks, shares at t=0 and t=40000 should differ
        assert not np.allclose(shares[0], shares[-1])

    @pytest.mark.parametrize("n_flows", [0, -1])
    def test_nonpositive_flow_count_rejected(self, rng, n_flows):
        with pytest.raises(ConfigError, match="n_flows must be positive"):
            _ecmp_weight_segments(100, 4, n_flows, 300.0, 1.0, rng)


class TestSynthesizeWindow:
    @pytest.fixture(scope="class")
    def window(self):
        return RackSynthesizer("cache").synthesize(50_000, np.random.default_rng(3))

    def test_shapes(self, window):
        assert window.downlink_util.shape == (50_000, 16)
        assert window.uplink_egress_util.shape == (50_000, 4)
        assert window.uplink_ingress_util.shape == (50_000, 4)
        assert window.n_ticks == 50_000
        assert window.n_downlinks == 16
        assert window.n_uplinks == 4

    def test_utilization_in_range(self, window):
        for util in (window.downlink_util, window.uplink_egress_util):
            assert util.min() >= 0.0
            assert util.max() <= 1.0

    def test_all_egress_concatenation(self, window):
        all_util = window.all_egress_util()
        assert all_util.shape == (50_000, 20)
        assert np.array_equal(all_util[:, :16], window.downlink_util)

    def test_traces(self, window):
        util = window.downlink_util[:, 3]
        trace = utilization_to_byte_trace(
            util, window.downlink_rate_bps, window.tick_ns, name="down3.tx_bytes"
        )
        assert len(trace) == window.n_ticks + 1
        assert np.abs(trace.utilization() - util).max() < 1e-3

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            RackSynthesizer("database")

    def test_activity_scales_hotness(self):
        syn = RackSynthesizer("hadoop")
        quiet = syn.synthesize(100_000, np.random.default_rng(1), activity=0.05)
        busy = syn.synthesize(100_000, np.random.default_rng(1), activity=2.0)
        assert (quiet.downlink_util > 0.5).mean() < (busy.downlink_util > 0.5).mean() / 3


class TestDeferredUplinks:
    """A synthesized window draws its uplinks from its own generator on
    first read, egress before ingress, whatever the read order."""

    N_TICKS = 4_000

    def window(self, seed=5):
        return RackSynthesizer("web").synthesize(
            self.N_TICKS, np.random.default_rng(seed), activity=0.5
        )

    def test_read_order_does_not_change_bytes(self):
        egress_first = self.window()
        egress = egress_first.uplink_egress_util.tobytes()
        ingress = egress_first.uplink_ingress_util.tobytes()
        ingress_first = self.window()
        assert ingress_first.uplink_ingress_util.tobytes() == ingress
        assert ingress_first.uplink_egress_util.tobytes() == egress
        assert egress != ingress

    def test_drawn_matrix_is_cached(self):
        window = self.window()
        assert window.uplink_egress_util is window.uplink_egress_util
        assert window.uplink_ingress_util is window.uplink_ingress_util

    def test_shape_reads_do_not_draw(self):
        rng = np.random.default_rng(5)
        window = RackSynthesizer("web").synthesize(self.N_TICKS, rng, activity=0.5)
        state = rng.bit_generator.state
        assert (window.n_ticks, window.n_downlinks, window.n_uplinks) == (
            self.N_TICKS, 16, 4
        )
        assert rng.bit_generator.state == state
        window.uplink_egress_util
        assert rng.bit_generator.state != state

    def test_undrawn_window_survives_pickle(self):
        window = self.window()
        copy = pickle.loads(pickle.dumps(window))
        assert copy.downlink_util.tobytes() == window.downlink_util.tobytes()
        for matrix in ("uplink_ingress_util", "uplink_egress_util"):
            assert getattr(copy, matrix).tobytes() == getattr(window, matrix).tobytes()

    def test_measured_window_needs_both_uplinks(self):
        util = np.zeros((10, 4))
        with pytest.raises(ConfigError, match="both uplink matrices"):
            RackWindow("web", us(25), gbps(10), gbps(10), util, uplink_egress_util=util)


class TestUplinkDrawsPerReader:
    """Each rack reader draws only the uplink matrices it reads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = RackSynthesizer.uplink_matrix

        def spy(self, *args, **kwargs):
            counted.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RackSynthesizer, "uplink_matrix", spy)
        return counted

    @pytest.mark.parametrize(
        ("experiment", "kwargs", "per_window", "n_windows"),
        [
            ("fig7", {"duration_s": 0.05}, 2, 3),
            ("fig8", {"duration_s": 0.05}, 0, 3),
            ("fig9", {"duration_s": 0.05}, 1, 3),
            ("fig10", {"duration_s": 0.4, "n_activity_windows": 2}, 1, 6),
        ],
    )
    def test_figure(self, calls, experiment, kwargs, per_window, n_windows):
        run_experiment(experiment, seed=0, **kwargs)
        assert len(calls) == per_window * n_windows

    def test_buffer_window(self, calls):
        SynthBackend(seed=0).sample_buffer_window(
            rack_window_spec("cache", ms(20), experiment="buffer")
        )
        assert len(calls) == 1


class TestSizeHistogram:
    def test_consistent_with_bytes(self, rng):
        profile = APP_PROFILES["hadoop"]
        util = rng.random(2000)
        hot = util > 0.5
        trace = synthesize_size_histogram(
            util, hot, profile, gbps(10), us(25), rng, name="h"
        )
        assert trace.values.shape == (2001, 6)
        deltas = trace.deltas()
        assert np.all(deltas >= 0)
        # hadoop: MTU bin dominates
        totals = deltas.sum(axis=0)
        assert totals[5] / totals.sum() > 0.7

    def test_zero_utilization_zero_packets(self, rng):
        profile = APP_PROFILES["web"]
        util = np.zeros(100)
        hot = np.zeros(100, dtype=bool)
        trace = synthesize_size_histogram(util, hot, profile, gbps(10), us(25), rng)
        assert trace.values[-1].sum() == 0
