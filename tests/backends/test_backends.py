"""Unit tests for the measurement-backend layer (repro.backends)."""

import pickle

import numpy as np
import pytest
from factories import SMOKE_SCALE

from repro.backends import (
    BACKENDS,
    MeasurementBackend,
    NetsimBackend,
    NetsimScale,
    SynthBackend,
    resolve_backend,
)
from repro.backends.base import default_port_names, rack_window_spec, single_port_plan
from repro.errors import ConfigError
from repro.units import ms, seconds


class TestPlanBuilders:
    def test_single_port_plan_shape(self):
        plan = single_port_plan("web", 6, seconds(1), seed=0)
        assert len(plan.windows) == 6
        assert all(w.rack_type == "web" for w in plan.windows)
        assert all(w.duration_ns == seconds(1) for w in plan.windows)
        assert [w.hour for w in plan.windows] == list(range(6))

    def test_port_choice_is_site_keyed(self):
        # A prefix plan chooses the same ports: window identity, not draw
        # order, keys the choice.
        long = single_port_plan("cache", 8, seconds(1), seed=5)
        short = single_port_plan("cache", 3, seconds(1), seed=5)
        assert [w.port_name for w in long.windows[:3]] == [
            w.port_name for w in short.windows
        ]

    def test_port_choice_varies_with_seed(self):
        a = [w.port_name for w in single_port_plan("web", 16, seconds(1), seed=0).windows]
        b = [w.port_name for w in single_port_plan("web", 16, seconds(1), seed=1).windows]
        assert a != b

    def test_explicit_port_respected(self):
        plan = single_port_plan("web", 2, seconds(1), seed=0, port="up1")
        assert all(w.port_name == "up1" for w in plan.windows)

    def test_port_choice_mostly_downlinks(self):
        plan = single_port_plan("hadoop", 200, seconds(1), seed=0)
        down = sum(w.port_name.startswith("down") for w in plan.windows)
        # 16 downlinks of 20 ports: expect roughly 80 % downlink choices.
        assert 0.7 < down / 200 < 0.9

    def test_default_port_names(self):
        names = default_port_names()
        assert names == [f"down{i}" for i in range(16)] + [f"up{i}" for i in range(4)]

    def test_rack_window_spec_identity(self):
        spec = rack_window_spec("web", seconds(2), experiment="fig7")
        assert spec.rack_id == "web-fig7"
        assert spec.rack_type == "web"
        assert spec.duration_ns == seconds(2)


class TestResolveBackend:
    def test_none_is_synth(self):
        backend = resolve_backend(None, seed=3)
        assert isinstance(backend, SynthBackend)
        assert backend.seed == 3

    def test_names_resolve(self):
        assert isinstance(resolve_backend("synth"), SynthBackend)
        assert isinstance(resolve_backend("netsim"), NetsimBackend)

    def test_instance_passthrough(self):
        backend = NetsimBackend(seed=9)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="netsim"):
            resolve_backend("quantum")

    def test_registry_names_match(self):
        for name, cls in BACKENDS.items():
            assert cls.name == name


class TestSynthBackend:
    def test_satisfies_protocol(self):
        assert isinstance(SynthBackend(), MeasurementBackend)

    def test_sample_window_deterministic(self):
        window = single_port_plan("web", 1, seconds(1), seed=0).windows[0]
        a = SynthBackend(seed=0).sample_window(window)
        b = SynthBackend(seed=0).sample_window(window)
        (ta,), (tb,) = a.values(), b.values()
        assert np.array_equal(ta.values, tb.values)
        assert np.array_equal(ta.timestamps_ns, tb.timestamps_ns)

    def test_histogram_window_traces(self):
        spec = rack_window_spec("cache", seconds(1), experiment="t")
        traces = SynthBackend(seed=0).sample_histogram_window(spec)
        assert set(traces) == {"down0.tx_bytes", "down0.tx_size_hist"}
        assert traces["down0.tx_size_hist"].values.ndim == 2

    def test_rack_window_shapes(self):
        spec = rack_window_spec("hadoop", seconds(1), experiment="t")
        window = SynthBackend(seed=0).sample_rack_window(spec)
        n_ticks = seconds(1) // SynthBackend().tick_ns
        assert window.downlink_util.shape == (n_ticks, 16)
        assert window.uplink_egress_util.shape == (n_ticks, 4)

    def test_rack_window_activity_scales(self):
        spec = rack_window_spec("hadoop", seconds(1), experiment="t")
        backend = SynthBackend(seed=0)
        busy = backend.sample_rack_window(spec, activity=1.0)
        idle = backend.sample_rack_window(spec, activity=0.01)
        assert idle.downlink_util.mean() < busy.downlink_util.mean()

    def test_buffer_window_normalised(self):
        spec = rack_window_spec("hadoop", seconds(2), experiment="t")
        trace = SynthBackend(seed=0).sample_buffer_window(spec)
        assert trace.meta["normalisation"] == 1 << 20
        assert (trace.values >= 0).all()
        assert (trace.values <= (1 << 20)).all()

    def test_subtick_window_rejected(self):
        from repro.core.campaign import CampaignWindow

        tiny = CampaignWindow(
            rack_id="r", rack_type="web", port_name="down0",
            hour=0, start_ns=0, duration_ns=1,
        )
        with pytest.raises(ConfigError):
            SynthBackend(seed=0).sample_histogram_window(tiny)


class TestNetsimScale:
    def test_defaults_valid(self):
        # The default rack matches the paper's measured ToR (16 down,
        # 4 up); the window cap reflects the post-optimisation budget.
        scale = NetsimScale()
        assert scale.n_downlinks == 16
        assert scale.n_uplinks == 4
        assert scale.max_window_ns == ms(40)

    def test_smoke_is_smaller(self):
        """The tests' smoke scale exercises the reduced-scale port folding."""
        assert SMOKE_SCALE.n_downlinks < NetsimScale().n_downlinks
        assert SMOKE_SCALE.max_window_ns < NetsimScale().max_window_ns

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            NetsimScale(n_downlinks=0)
        with pytest.raises(ConfigError):
            NetsimScale(max_window_ns=0)


class TestNetsimBackend:
    def make(self, seed=0):
        return NetsimBackend(seed=seed, scale=SMOKE_SCALE)

    def test_satisfies_protocol(self):
        assert isinstance(self.make(), MeasurementBackend)

    def test_pickle_roundtrip(self):
        backend = self.make(seed=4)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone == backend

    def test_port_folding(self):
        backend = self.make()
        # smoke scale has 4 downlinks / 2 uplinks
        assert backend.map_port("down12") == "down0"
        assert backend.map_port("down2") == "down2"
        assert backend.map_port("up3") == "up1"

    def test_sample_window_renames_to_plan_port(self):
        window = single_port_plan("web", 1, ms(6), seed=0, port="down12").windows[0]
        traces = self.make().sample_window(window)
        assert set(traces) == {"down12.tx_bytes"}
        trace = traces["down12.tx_bytes"]
        assert trace.meta["backend"] == "netsim"
        assert trace.meta["measured_port"] == "down0"

    def test_sample_window_deterministic(self):
        window = single_port_plan("cache", 1, ms(6), seed=2, port="up0").windows[0]
        a = self.make(seed=2).sample_window(window)["up0.tx_bytes"]
        b = self.make(seed=2).sample_window(window)["up0.tx_bytes"]
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.timestamps_ns, b.timestamps_ns)

    def test_window_cap_applies(self):
        window = single_port_plan("web", 1, seconds(2), seed=0, port="down0").windows[0]
        trace = self.make().sample_window(window)["down0.tx_bytes"]
        span = int(trace.timestamps_ns[-1] - trace.timestamps_ns[0])
        assert span <= SMOKE_SCALE.max_window_ns

    def test_unknown_app_rejected(self):
        window = single_port_plan("web", 1, ms(6), seed=0).windows[0]
        bad = type(window)(
            rack_id="x", rack_type="quake", port_name="down0",
            hour=0, start_ns=0, duration_ns=ms(6),
        )
        with pytest.raises(ConfigError):
            self.make().sample_window(bad)
