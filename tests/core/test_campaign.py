"""Measurement campaign tests (Sec 4.2 discipline)."""

import numpy as np
import pytest
from factories import regular_trace

from repro.core.campaign import CampaignWindow, MeasurementCampaign
from repro.core.samples import ValueKind
from repro.errors import ConfigError
from repro.synth.dataset import default_plan
from repro.units import seconds


@pytest.fixture
def plan():
    """Two racks per application, one window in each of 24 hours."""
    return default_plan(racks_per_app=2, hours=24, seed=12345)


class TestPlanGeneration:
    def test_one_window_per_rack_hour(self, plan):
        assert len(plan.windows) == 6 * 24

    def test_windows_fit_their_hour(self, plan):
        hour_ns = seconds(3600)
        for window in plan.windows:
            assert window.hour * hour_ns <= window.start_ns
            assert window.end_ns <= (window.hour + 1) * hour_ns

    def test_one_port_per_rack(self, plan):
        ports = {}
        for window in plan.windows:
            ports.setdefault(window.rack_id, set()).add(window.port_name)
        assert all(len(ps) == 1 for ps in ports.values())

    def test_random_offsets_vary(self, plan):
        offsets = {w.start_ns % seconds(3600) for w in plan.windows}
        assert len(offsets) > 10

    def test_windows_for_type(self, plan):
        for app in ("web", "cache", "hadoop"):
            assert sum(w.rack_type == app for w in plan.windows) == 2 * 24

    def test_total_measured_seconds(self, plan):
        assert plan.total_measured_seconds == pytest.approx(144 * 120)

    def test_paper_scale_plan(self):
        """The paper: 30 racks x 24 hours = 720 two-minute windows."""
        plan = default_plan()
        assert len(plan.windows) == 720
        assert plan.total_measured_seconds == pytest.approx(720 * 120)

    def test_validation(self):
        with pytest.raises(ConfigError):
            default_plan(hours=0)
        with pytest.raises(ConfigError):
            default_plan(window_duration_ns=seconds(7200))

    def test_digest_pinned(self):
        """Plan digests guard checkpoint resume; the RNG call order that
        draws ports and offsets must not move."""
        assert default_plan().digest() == "86cb0eda9b949bde"
        assert default_plan(racks_per_app=2, hours=3, seed=1).digest() == "3b9fdc9f52c5f921"


class FakeSource:
    def __init__(self):
        self.calls = []

    def sample_window(self, window: CampaignWindow):
        self.calls.append(window)
        trace = regular_trace(
            25_000,
            np.arange(10, dtype=np.int64),
            ValueKind.CUMULATIVE,
            name=window.port_name,
            rate_bps=10e9,
            start_ns=window.start_ns,
        )
        return {window.port_name: trace}


class TestExecution:
    def test_run_visits_every_window(self, plan):
        source = FakeSource()
        result = MeasurementCampaign(plan, source).run()
        assert len(source.calls) == len(plan.windows)
        assert len(result.traces) == len(plan.windows)

    def test_by_type_filters(self, plan):
        result = MeasurementCampaign(plan, FakeSource()).run()
        web = [traces for window, traces in result.iter_windows() if window.rack_type == "web"]
        assert len(web) == 2 * 24
        assert len(list(result.iter_windows())) == len(plan.windows)
