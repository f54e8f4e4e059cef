"""Resilient campaign runner tests: retry, timeout, partial results,
checkpoint/resume."""

import shutil
import time

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignPlan,
    CampaignWindow,
    CampaignResult,
    MeasurementCampaign,
    RetryPolicy,
    WindowStatus,
)
from repro.core.samples import CounterTrace, ValueKind
from repro.errors import AnalysisError, CollectionError, ConfigError
from repro.units import us


def make_plan(n_windows=6):
    windows = tuple(
        CampaignWindow(
            rack_id=f"web-rack{i}",
            rack_type="web" if i % 2 == 0 else "cache",
            port_name="down0",
            hour=i,
            start_ns=i * us(25) * 100,
            duration_ns=us(25) * 100,
        )
        for i in range(n_windows)
    )
    return CampaignPlan(windows=windows)


def window_trace(window):
    values = (np.arange(16, dtype=np.int64) + window.hour) * 1000
    trace = CounterTrace.regular(
        us(25),
        np.cumsum(values).astype(np.int64),
        ValueKind.CUMULATIVE,
        name="down0.tx_bytes",
        rate_bps=10e9,
        start_ns=window.start_ns,
    )
    return {trace.name: trace}


def assert_same_traces(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert set(want) == set(got)
        for name in want:
            assert want[name].timestamps_ns.tobytes() == got[name].timestamps_ns.tobytes()
            assert want[name].values.tobytes() == got[name].values.tobytes()


class FlakySource:
    """Fails the first ``fail_attempts[hour]`` attempts of each window."""

    def __init__(self, fail_attempts=None):
        self.fail_attempts = fail_attempts or {}
        self.attempts = {}
        self.calls = 0

    def sample_window(self, window):
        self.calls += 1
        attempt = self.attempts.get(window.hour, 0)
        self.attempts[window.hour] = attempt + 1
        if attempt < self.fail_attempts.get(window.hour, 0):
            raise CollectionError(f"flake on hour {window.hour} attempt {attempt}")
        return window_trace(window)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(window_timeout_s=0)

    def test_transient_failure_recovered_and_marked_degraded(self):
        plan = make_plan()
        source = FlakySource(fail_attempts={2: 1})
        result = MeasurementCampaign(
            plan, source, retry=RetryPolicy(max_attempts=3, backoff_s=0)
        ).run()
        assert result.outcomes[2].status is WindowStatus.DEGRADED
        assert result.outcomes[2].attempts == 2
        assert all(
            o.status is WindowStatus.OK for o in result.outcomes if o.index != 2
        )

    def test_persistent_failure_yields_partial_result(self):
        plan = make_plan()
        source = FlakySource(fail_attempts={1: 99})
        result = MeasurementCampaign(
            plan, source, retry=RetryPolicy(max_attempts=3, backoff_s=0)
        ).run()
        assert result.outcomes[1].status is WindowStatus.FAILED
        assert result.traces[1] == {}
        assert "flake on hour 1" in result.outcomes[1].error
        assert len(result.traces) == len(plan.windows)
        assert result.n_failed == 1
        assert result.completion_fraction == pytest.approx(5 / 6)
        # completed() skips the failed window but keeps the rest.
        assert len(list(result.completed())) == 5
        assert len(list(result.completed("web"))) == 3

    def test_backoff_schedule_uses_injected_sleep(self):
        plan = make_plan(n_windows=1)
        naps = []
        MeasurementCampaign(
            make_plan(1),
            FlakySource(fail_attempts={0: 99}),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0),
            sleep=naps.append,
        ).run()
        assert naps == pytest.approx([0.1, 0.2, 0.4])
        assert len(plan.windows) == 1

    def test_no_retry_policy_keeps_fail_fast(self):
        source = FlakySource(fail_attempts={0: 1})
        with pytest.raises(CollectionError):
            MeasurementCampaign(make_plan(1), source).run()
        assert source.calls == 1

    def test_non_repro_errors_propagate_even_with_retry(self):
        class Broken:
            def sample_window(self, window):
                raise RuntimeError("programming error")

        with pytest.raises(RuntimeError):
            MeasurementCampaign(
                make_plan(1), Broken(), retry=RetryPolicy(backoff_s=0)
            ).run()


class TestTimeout:
    def test_hung_window_times_out_and_fails(self):
        class Hung:
            def sample_window(self, window):
                time.sleep(0.5)
                return window_trace(window)

        result = MeasurementCampaign(
            make_plan(1),
            Hung(),
            retry=RetryPolicy(max_attempts=2, backoff_s=0, window_timeout_s=0.02),
        ).run()
        assert result.outcomes[0].status is WindowStatus.FAILED
        assert "timed out" in result.outcomes[0].error

    def test_fast_window_unaffected_by_timeout(self):
        result = MeasurementCampaign(
            make_plan(2),
            FlakySource(),
            retry=RetryPolicy(window_timeout_s=5.0),
        ).run()
        assert all(o.status is WindowStatus.OK for o in result.outcomes)


class TestResultAlignment:
    def test_misaligned_traces_rejected_not_zip_truncated(self):
        plan = make_plan(4)
        short = CampaignResult(plan=plan, traces=[{}, {}], outcomes=[])
        with pytest.raises(AnalysisError):
            short.by_type("web")
        with pytest.raises(AnalysisError):
            list(short.iter_windows())


class TestCheckpointResume:
    def run_interrupted(self, plan, tmp_path, stop_after):
        class Interrupting:
            def __init__(self):
                self.inner = FlakySource()

            def sample_window(self, window):
                if self.inner.calls >= stop_after:
                    raise RuntimeError("simulated crash")
                return self.inner.sample_window(window)

        campaign = MeasurementCampaign(
            plan,
            Interrupting(),
            retry=RetryPolicy(backoff_s=0),
            checkpoint_dir=tmp_path / "ckpt",
        )
        with pytest.raises(RuntimeError):
            campaign.run()

    def test_resume_skips_completed_windows_and_matches_clean_run(self, tmp_path):
        plan = make_plan(6)
        clean = MeasurementCampaign(plan, FlakySource()).run()
        self.run_interrupted(plan, tmp_path, stop_after=3)
        source = FlakySource()
        resumed = MeasurementCampaign(
            plan,
            source,
            retry=RetryPolicy(backoff_s=0),
            checkpoint_dir=tmp_path / "ckpt",
        ).run(resume=True)
        # Only the remaining windows were collected.
        assert source.calls == 3
        assert [o.status for o in resumed.outcomes] == [WindowStatus.OK] * 6
        # Byte-identical traces whether or not the run was interrupted.
        assert_same_traces(clean.traces, resumed.traces)

    def test_resume_false_recollects_everything(self, tmp_path):
        plan = make_plan(3)
        ckpt = tmp_path / "ckpt"
        MeasurementCampaign(plan, FlakySource(), checkpoint_dir=ckpt).run()
        source = FlakySource()
        MeasurementCampaign(plan, source, checkpoint_dir=ckpt).run(resume=False)
        assert source.calls == 3

    def test_failed_windows_checkpointed_and_not_retried_on_resume(self, tmp_path):
        plan = make_plan(3)
        ckpt = tmp_path / "ckpt"
        MeasurementCampaign(
            plan,
            FlakySource(fail_attempts={1: 99}),
            retry=RetryPolicy(max_attempts=2, backoff_s=0),
            checkpoint_dir=ckpt,
        ).run()
        source = FlakySource()
        resumed = MeasurementCampaign(
            plan, source, retry=RetryPolicy(backoff_s=0), checkpoint_dir=ckpt
        ).run(resume=True)
        assert source.calls == 0
        assert resumed.outcomes[1].status is WindowStatus.FAILED
        assert resumed.traces[1] == {}

    def test_checkpoint_for_different_plan_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        MeasurementCampaign(make_plan(3), FlakySource(), checkpoint_dir=ckpt).run()
        other = MeasurementCampaign(make_plan(4), FlakySource(), checkpoint_dir=ckpt)
        with pytest.raises(CollectionError):
            other.run(resume=True)

    def test_damaged_checkpoint_trace_recollected(self, tmp_path):
        plan = make_plan(3)
        ckpt = tmp_path / "ckpt"
        MeasurementCampaign(plan, FlakySource(), checkpoint_dir=ckpt).run()
        archive = ckpt / "window_00001.npz"
        archive.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])
        source = FlakySource()
        resumed = MeasurementCampaign(
            plan, source, retry=RetryPolicy(backoff_s=0), checkpoint_dir=ckpt
        ).run(resume=True)
        assert source.calls == 1  # only the damaged window
        assert resumed.traces[1]  # and its data is back

    def test_torn_manifest_record_recollected_at_every_offset(self, tmp_path):
        """A crash mid-append can cut the last record anywhere; resume
        re-collects that window and later appends start a fresh line."""
        plan = make_plan(4)
        clean = tmp_path / "clean"
        reference = MeasurementCampaign(plan, FlakySource(), checkpoint_dir=clean).run()
        manifest = (clean / "manifest.jsonl").read_bytes()
        last_start = manifest.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start, len(manifest)):
            ckpt = tmp_path / f"cut{cut}"
            shutil.copytree(clean, ckpt)
            (ckpt / "manifest.jsonl").write_bytes(manifest[:cut])
            for expected_calls in (1, 0):  # re-collect once, then fully resumed
                source = FlakySource()
                resumed = MeasurementCampaign(
                    plan, source, checkpoint_dir=ckpt
                ).run(resume=True)
                assert source.calls == expected_calls, cut
                assert_same_traces(reference.traces, resumed.traces)
                assert resumed.status_counts() == reference.status_counts()
            assert (ckpt / "manifest.jsonl").read_bytes() == manifest
