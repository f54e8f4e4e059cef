"""Synthetic campaign source tests."""

import numpy as np
import pytest

from repro.backends import single_port_plan
from repro.core.campaign import CampaignWindow
from repro.core.parallel import ParallelCampaign
from repro.errors import ConfigError
from repro.experiments.common import app_byte_traces
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.units import seconds


def window(rack_type="web", port="down0", hour=0, duration=seconds(1)):
    return CampaignWindow(
        rack_id=f"{rack_type}-rack0",
        rack_type=rack_type,
        port_name=port,
        hour=hour,
        start_ns=hour * seconds(3600),
        duration_ns=duration,
    )


class TestSource:
    def test_produces_named_trace(self):
        source = SyntheticCampaignSource(seed=1)
        traces = source.sample_window(window())
        assert set(traces) == {"down0.tx_bytes"}
        trace = traces["down0.tx_bytes"]
        # n_ticks intervals -> n_ticks + 1 cumulative samples
        assert len(trace) == seconds(1) // 25_000 + 1
        assert trace.timestamps_ns[0] == 0

    def test_deterministic_per_window(self):
        source_a = SyntheticCampaignSource(seed=1)
        source_b = SyntheticCampaignSource(seed=1)
        trace_a = source_a.sample_window(window())["down0.tx_bytes"]
        trace_b = source_b.sample_window(window())["down0.tx_bytes"]
        assert np.array_equal(trace_a.values, trace_b.values)

    def test_different_hours_differ(self):
        source = SyntheticCampaignSource(seed=1)
        a = source.sample_window(window(hour=0))["down0.tx_bytes"]
        b = source.sample_window(window(hour=1))["down0.tx_bytes"]
        assert not np.array_equal(a.values, b.values)

    def test_uplink_port_uses_uplink_profile(self):
        source = SyntheticCampaignSource(seed=1)
        down = source.sample_window(window(rack_type="cache", port="down0"))
        up = source.sample_window(window(rack_type="cache", port="up0", hour=2))
        hot_down = (down["down0.tx_bytes"].utilization() > 0.5).mean()
        hot_up = (up["up0.tx_bytes"].utilization() > 0.5).mean()
        # cache uplinks are much hotter than downlinks (Fig 9)
        assert hot_up > hot_down * 2

    def test_unknown_rack_type_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticCampaignSource().sample_window(window(rack_type="db"))


class TestDefaultPlan:
    def test_paper_shape(self):
        plan = default_plan(racks_per_app=10, hours=24)
        assert len(plan.windows) == 720
        assert sum(w.rack_type == "web" for w in plan.windows) == 240

    def test_port_mix_mostly_downlinks(self):
        plan = default_plan(racks_per_app=30, hours=1, seed=3)
        downs = sum(1 for w in plan.windows if w.port_name.startswith("down"))
        assert downs / len(plan.windows) > 0.6


class TestHelpers:
    def test_synthesize_app_windows(self):
        traces = app_byte_traces("hadoop", seed=2, n_windows=3, window_s=0.5)
        assert len(traces) == 3
        for trace in traces:
            assert trace.rate_bps > 0

    def test_fixed_port_override(self):
        source = SyntheticCampaignSource()
        plan = single_port_plan("web", 2, seconds(0.5), port="up1")
        names = [name for w in plan.windows for name in source.sample_window(w)]
        assert names == ["up1.tx_bytes"] * 2

    def test_zero_windows_rejected(self):
        with pytest.raises(ConfigError):
            single_port_plan("web", 0, seconds(1))

    def test_run_campaign_end_to_end(self):
        plan = default_plan(racks_per_app=1, hours=2, window_duration_ns=seconds(0.5))
        result = ParallelCampaign(plan, SyntheticCampaignSource(seed=1)).run()
        assert len(result.traces) == 6
        for traces in result.traces:
            assert len(traces) == 1
