"""ExperimentResult / CLI plumbing tests."""

import json
import zlib

import numpy as np
import pytest

from repro.cli import _netsim_kwargs, _scale_kwargs
from repro.errors import ConfigError
from repro.experiments.common import ExperimentResult, app_byte_traces
from repro.netsim import RackConfig


class TestExperimentResult:
    def make(self):
        result = ExperimentResult(experiment_id="figX", title="Demo")
        result.add("metric-a", 1.0, np.float64(2.0))
        result.add("metric-b", "paper says", True)
        result.add_series("cdf", [(1.0, 0.5), (2.0, 1.0)])
        result.notes.append("a note")
        return result

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "figX: Demo" in text
        assert "metric-a" in text
        assert "note: a note" in text
        assert "cdf" not in text  # series only with the flag

    def test_render_with_series(self):
        text = self.make().render(include_series=True)
        assert "series cdf:" in text

    def test_to_dict_json_serialisable(self):
        payload = self.make().to_dict(include_series=True)
        text = json.dumps(payload)  # must not raise on numpy scalars
        parsed = json.loads(text)
        assert parsed["experiment_id"] == "figX"
        assert parsed["rows"][0]["measured"] == 2.0
        assert parsed["series"]["cdf"] == [[1.0, 0.5], [2.0, 1.0]]

    def test_to_dict_without_series(self):
        payload = self.make().to_dict()
        assert "series" not in payload

    def test_checks_are_named_booleans(self):
        result = self.make()
        result.check("a holds", np.float64(2.0) > 1.0)
        result.check("b holds", False)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["checks"] == [
            {"name": "a holds", "passed": True},
            {"name": "b holds", "passed": False},
        ]
        assert result.failed_checks == ["b holds"]
        text = result.render()
        assert "check: PASS  a holds" in text
        assert "check: FAIL  b holds" in text
        assert "1/2 checks passed" in text


class TestScaleKwargs:
    def test_small_scale_is_defaults(self):
        assert _scale_kwargs("fig3", "small") == {}

    def test_full_scale_known_experiment(self):
        kwargs = _scale_kwargs("fig3", "full")
        assert kwargs["n_windows"] > 100

    def test_full_scale_unknown_experiment_empty(self):
        assert _scale_kwargs("ext-netsim", "full") == {}


class TestNetsimKwargs:
    def test_campaign_experiments_shrink(self):
        assert _netsim_kwargs("fig3")["n_windows"] < 24
        assert _netsim_kwargs("ext-chaos")["campaign_racks_per_app"] == 1

    def test_non_campaign_experiments_untouched(self):
        assert _netsim_kwargs("fig1") == {}


class TestSiteKeyedSeeding:
    """Satellite regression: experiment seeding goes through the crc32
    site-key scheme of repro.core.seeding (no more ``seed + 977`` bypass),
    pinned by trace CRCs so reseeding regressions are loud."""

    #: crc32 over (values || timestamps) of
    #: ``app_byte_traces(app, seed=0, n_windows=4, window_s=1.0)``
    GOLDEN_CRCS = {
        "web": 0x4BABC719,
        "cache": 0x3BC94665,
        "hadoop": 0xEEB87BCD,
    }

    @staticmethod
    def crc(traces) -> int:
        crc = 0
        for trace in traces:
            crc = zlib.crc32(trace.values.tobytes(), crc)
            crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
        return crc

    @pytest.mark.parametrize("app", sorted(GOLDEN_CRCS))
    def test_golden_trace_crcs(self, app):
        traces = app_byte_traces(app, seed=0, n_windows=4, window_s=1.0)
        assert self.crc(traces) == self.GOLDEN_CRCS[app]

    def test_port_schedule_is_window_keyed(self):
        # The port drawn for window i must not depend on how many windows
        # the run asks for — identity, not draw order, keys the choice.
        names_long = [t.name for t in app_byte_traces("web", seed=2, n_windows=6, window_s=1.0)]
        names_short = [t.name for t in app_byte_traces("web", seed=2, n_windows=3, window_s=1.0)]
        assert names_long[:3] == names_short


class TestRackConfigValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            RackConfig(transport="cubic")

    def test_transport_class_resolution(self):
        from repro.netsim.ecn import DctcpTransport
        from repro.netsim.host import WindowedTransport

        assert RackConfig(transport="reno").transport_class() is WindowedTransport
        assert RackConfig(transport="dctcp").transport_class() is DctcpTransport
