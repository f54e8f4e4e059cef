"""End-to-end chaos campaign: the ISSUE's acceptance scenario.

A campaign over the synthetic fleet with a 5 % injected window-failure
rate must complete with partial results (transient failures retried,
persistent ones marked failed), and an interrupted checkpointed run must
resume to traces byte-identical to an uninterrupted one.
"""

import numpy as np
import pytest

from repro.analysis.bursts import extract_bursts_gap_aware
from repro.core.campaign import MeasurementCampaign, RetryPolicy, WindowStatus
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.telemetry.metrics import scoped_registry
from repro.units import seconds


def make_plan(seed=0):
    # 3 apps x 2 racks x 4 hours = 24 half-second windows.
    return default_plan(
        racks_per_app=2, hours=4, window_duration_ns=seconds(0.5), seed=seed
    )


def faulty_source(seed=0, rate=0.05):
    injector = FaultInjector(
        FaultPlan(
            seed=seed + 1,
            window_failure_rate=rate,
            transient_fraction=0.5,
            sample_loss_rate=0.01,
            wrap_bits=32,
        )
    )
    return FaultyWindowSource(SyntheticCampaignSource(seed=seed), injector)


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert set(left) == set(right)
        for name in left:
            assert left[name].timestamps_ns.tobytes() == right[name].timestamps_ns.tobytes()
            assert np.asarray(left[name].values).tobytes() == np.asarray(
                right[name].values
            ).tobytes()


class TestChaosCampaign:
    def test_five_percent_failure_rate_completes_partially(self):
        plan = make_plan()
        with scoped_registry() as registry:
            result = MeasurementCampaign(
                plan, faulty_source(), retry=RetryPolicy(max_attempts=3, backoff_s=0)
            ).run()
        counts = result.status_counts()
        assert sum(counts.values()) == len(plan.windows)
        # Transients recovered by retry never surface as failures.
        persistent = registry.snapshot()["counters"].get("faults.persistent_faults", 0)
        assert counts[WindowStatus.FAILED.value] <= persistent
        assert result.completion_fraction >= 0.8
        # Degraded traces still feed the gap-aware analysis.
        for _window, traces in result.completed():
            for trace in traces.values():
                stats = extract_bursts_gap_aware(trace)
                assert 0.0 < stats.coverage <= 1.0

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        plan = make_plan(seed=2)
        retry = RetryPolicy(max_attempts=3, backoff_s=0)
        uninterrupted = MeasurementCampaign(
            plan, faulty_source(seed=2), retry=retry
        ).run()

        class Interrupting:
            def __init__(self, inner, stop_after):
                self.inner = inner
                self.stop_after = stop_after
                self.calls = 0

            def sample_window(self, window):
                if self.calls >= self.stop_after:
                    raise KeyboardInterrupt
                self.calls += 1
                return self.inner.sample_window(window)

        ckpt = tmp_path / "ckpt"
        campaign = MeasurementCampaign(
            plan,
            Interrupting(faulty_source(seed=2), stop_after=9),
            retry=retry,
            checkpoint_dir=ckpt,
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.run()

        resumed = MeasurementCampaign(
            plan, faulty_source(seed=2), retry=retry, checkpoint_dir=ckpt
        ).run(resume=True)
        assert_traces_equal(uninterrupted.traces, resumed.traces)
        assert [o.status for o in resumed.outcomes] == [
            o.status for o in uninterrupted.outcomes
        ]
