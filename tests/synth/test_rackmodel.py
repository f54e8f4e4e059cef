"""Rack synthesizer tests."""

import numpy as np
import pytest

from repro.core.samples import ValueKind
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES
from repro.synth.rackmodel import (
    RackSynthesizer,
    _ecmp_weight_segments,
    synthesize_size_histogram,
    utilization_to_byte_trace,
)
from repro.units import gbps, us


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
