"""Golden determinism suite for sharded parallel campaigns.

The contract under test (see ``repro.core.parallel``): a campaign run
serially, with 2 workers, and with 4 workers produces **byte-identical**
results — same trace bytes (compared via the traceio integrity CRCs),
same per-window outcomes — including under injected faults and across
checkpoint interrupt/resume at a *different* worker count.
"""

import json

import numpy as np
import pytest

from repro.core.campaign import MeasurementCampaign, RetryPolicy
from repro.core.parallel import ParallelCampaign, shard_plan
from repro.core.traceio import _crc
from repro.errors import CollectionError, ConfigError
from repro.experiments import run_experiment
from repro.experiments.registry import EXPERIMENTS, accepts_param, get_experiment
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.telemetry.metrics import scoped_registry
from repro.units import seconds

SEED = 7


def small_plan():
    # 3 apps x 1 rack x 3 hours = 9 windows; enough shards to exercise
    # out-of-order completion at 2 and 4 workers.
    return default_plan(
        racks_per_app=1, hours=3, window_duration_ns=seconds(0.2), seed=SEED
    )


def clean_source():
    return SyntheticCampaignSource(seed=SEED)


def faulty_source():
    injector = FaultInjector(
        FaultPlan(
            seed=SEED + 1,
            window_failure_rate=0.3,
            transient_fraction=0.5,
            sample_loss_rate=0.05,
            wrap_bits=32,
        )
    )
    return FaultyWindowSource(clean_source(), injector)


def digest(result):
    """Byte-level fingerprint of a campaign result.

    npz archives are not byte-stable (zip metadata), so golden comparisons
    use the same CRC32-over-array-bytes that traceio's integrity records
    use: equal digests == byte-identical trace payloads.
    """
    fingerprint = []
    for window, traces in result.iter_windows():
        entry = [window.rack_id, window.hour]
        for name in sorted(traces):
            trace = traces[name]
            entry.append((name, _crc(trace.timestamps_ns), _crc(trace.values)))
        fingerprint.append(tuple(entry))
    return tuple(fingerprint)


def outcome_digest(result):
    return [
        (o.index, o.status.value, o.attempts, o.error) for o in result.outcomes
    ]


class TestGoldenIdentity:
    def test_serial_vs_2_vs_4_workers_byte_identical(self):
        plan = small_plan()
        serial = MeasurementCampaign(plan, clean_source()).run()
        golden = digest(serial)
        for workers in (1, 2, 4):
            parallel = ParallelCampaign(
                plan, clean_source(), workers=workers
            ).run()
            assert digest(parallel) == golden, f"workers={workers} diverged"
            assert np.array_equal(
                parallel.traces[0][next(iter(parallel.traces[0]))].values,
                serial.traces[0][next(iter(serial.traces[0]))].values,
            )

    def test_identical_under_fault_injection(self):
        plan = small_plan()
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
        serial = MeasurementCampaign(plan, faulty_source(), retry=retry).run()
        golden, golden_outcomes = digest(serial), outcome_digest(serial)
        fault_counters = []
        for workers in (1, 4):
            with scoped_registry() as registry:
                parallel = ParallelCampaign(
                    plan, faulty_source(), retry=retry, workers=workers
                ).run()
                counters = registry.snapshot()["counters"]
            assert digest(parallel) == golden, f"workers={workers} diverged"
            assert outcome_digest(parallel) == golden_outcomes
            fault_counters.append(
                {name: value for name, value in counters.items() if name.startswith("faults.")}
            )
        # The merged fault counters are themselves order-independent.
        assert fault_counters[0] == fault_counters[1]
        assert fault_counters[0].get("faults.window_faults", 0) > 0


class TestCheckpointResume:
    def interrupt(self, plan, ckpt, stop_after):
        class Interrupting:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def sample_window(self, window):
                if self.calls >= stop_after:
                    raise RuntimeError("simulated crash")
                self.calls += 1
                return self.inner.sample_window(window)

        campaign = ParallelCampaign(
            plan,
            Interrupting(clean_source()),
            retry=RetryPolicy(backoff_s=0.0),
            checkpoint_dir=ckpt,
            workers=1,
        )
        with pytest.raises(RuntimeError):
            campaign.run()

    def test_resume_at_different_worker_count_matches_clean_run(self, tmp_path):
        plan = small_plan()
        golden = digest(MeasurementCampaign(plan, clean_source()).run())
        ckpt = tmp_path / "ckpt"
        self.interrupt(plan, ckpt, stop_after=4)
        # The interrupted run left per-shard checkpoints behind.
        assert (ckpt / "shards.json").exists()
        assert any(ckpt.glob("shard_*/manifest.jsonl"))
        resumed = ParallelCampaign(
            plan,
            clean_source(),
            retry=RetryPolicy(backoff_s=0.0),
            checkpoint_dir=ckpt,
            workers=4,
        ).run(resume=True)
        assert digest(resumed) == golden

    def test_resume_under_faults_matches_uninterrupted_run(self, tmp_path):
        plan = small_plan()
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
        golden = digest(
            MeasurementCampaign(plan, faulty_source(), retry=retry).run()
        )
        ckpt = tmp_path / "ckpt"
        first = ParallelCampaign(
            plan, faulty_source(), retry=retry, checkpoint_dir=ckpt, workers=1
        )
        first.run()
        # Re-running with resume=True replays everything from checkpoint.
        replayed = ParallelCampaign(
            plan, faulty_source(), retry=retry, checkpoint_dir=ckpt, workers=4
        ).run(resume=True)
        assert digest(replayed) == golden

    def test_resume_refuses_layout_change(self, tmp_path):
        plan = small_plan()
        ckpt = tmp_path / "ckpt"
        ParallelCampaign(plan, clean_source(), checkpoint_dir=ckpt).run()
        # Same plan and shard count, but one window moved between shards.
        layout_path = ckpt / "shards.json"
        layout = json.loads(layout_path.read_text())
        assert len(layout["shard_sizes"]) >= 2
        layout["shard_sizes"][0] -= 1
        layout["shard_sizes"][1] += 1
        layout_path.write_text(json.dumps(layout))
        relaid = ParallelCampaign(plan, clean_source(), checkpoint_dir=ckpt, workers=2)
        with pytest.raises(CollectionError):
            relaid.run(resume=True)

    def test_resume_refuses_different_plan(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ParallelCampaign(small_plan(), clean_source(), checkpoint_dir=ckpt).run()
        other = default_plan(
            racks_per_app=1, hours=3, window_duration_ns=seconds(0.2), seed=SEED + 9
        )
        with pytest.raises(CollectionError):
            ParallelCampaign(
                other, clean_source(), checkpoint_dir=ckpt
            ).run(resume=True)


class TestShardLayout:
    def test_shards_partition_the_plan_by_rack(self):
        plan = small_plan()
        shards = shard_plan(plan)
        covered = sorted(i for shard in shards for i in shard.indices)
        assert covered == list(range(len(plan.windows)))
        for shard in shards:
            racks = {plan.windows[i].rack_id for i in shard.indices}
            assert len(racks) == 1

    def test_layout_is_worker_count_invariant(self):
        plan = small_plan()
        assert shard_plan(plan) == shard_plan(plan)
        for campaign_workers in (1, 2, 4, 8):
            campaign = ParallelCampaign(
                plan, clean_source(), workers=campaign_workers
            )
            assert campaign.shards == shard_plan(plan)

    def test_invalid_configuration_rejected(self):
        plan = small_plan()
        with pytest.raises(ConfigError):
            ParallelCampaign(plan, clean_source(), workers=0)


#: Small-scale overrides for the per-experiment contract; each runner gets
#: only the keys its signature takes.
SMALL_SCALE = dict(
    n_windows=4,
    window_s=0.5,
    campaign_racks_per_app=1,
    campaign_hours=2,
    campaign_window_s=0.5,
)
CAMPAIGN_EXPERIMENTS = [
    eid for eid in EXPERIMENTS if accepts_param(get_experiment(eid), "workers")
]


def test_campaign_experiments_are_covered():
    assert {"fig3", "fig4", "fig6", "tab2", "ext-cc", "ext-lb", "ext-chaos"} <= set(
        CAMPAIGN_EXPERIMENTS
    )


@pytest.mark.parametrize("experiment_id", CAMPAIGN_EXPERIMENTS)
def test_experiment_output_is_worker_count_invariant(experiment_id):
    runner = get_experiment(experiment_id)
    kwargs = {k: v for k, v in SMALL_SCALE.items() if accepts_param(runner, k)}
    serial = run_experiment(experiment_id, seed=0, workers=1, **kwargs)
    sharded = run_experiment(experiment_id, seed=0, workers=2, **kwargs)
    assert sharded.to_dict(include_series=True) == serial.to_dict(include_series=True)
