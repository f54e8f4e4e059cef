"""Extension-experiment tests (Sec 7 implications + failures)."""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.synth.rackmodel import _ecmp_weight_segments
from repro.errors import ConfigError


def rows_dict(result):
    return {metric: measured for metric, _paper, measured in result.rows}


class TestExtCc:
    def test_microbursts_beat_the_signal(self):
        result = run_experiment("ext-cc", seed=0, n_windows=6, window_s=1.0)
        rows = rows_dict(result)
        # most web bursts end before even a 100 us RTT elapses
        assert rows["web: bursts over before 1 RTT (100us) elapses"] > 0.8
        # dctcp holds a shorter steady-state queue than reno
        reno_peak, dctcp_peak = map(
            int, str(rows["incast peak buffer: reno -> dctcp"]).split(" -> ")
        )
        assert dctcp_peak < reno_peak


class TestExtLb:
    def test_most_gaps_allow_resplit(self):
        result = run_experiment("ext-lb", seed=0, n_windows=6, window_s=1.0)
        rows = rows_dict(result)
        for app in ("web", "cache", "hadoop"):
            assert rows[f"{app}: gaps exceeding 50us e2e latency"] > 0.4


class TestExtPacing:
    def test_pacing_removes_offload_bursts(self):
        result = run_experiment("ext-pacing", seed=0)
        rows = rows_dict(result)
        unpaced, paced = str(rows["bursts: unpaced -> paced"]).split(" -> ")
        assert int(unpaced) > 20
        assert int(paced) < int(unpaced) // 10


class TestExtFailures:
    def test_failure_worsens_imbalance(self):
        result = run_experiment("ext-failures", seed=0, duration_s=2.0)
        rows = rows_dict(result)
        assert rows["imbalance ordering holds"] is True
        assert rows["one ToR uplink down: median MAD"] > rows["healthy fabric: median MAD @40us"]


class TestExtNetsim:
    def test_cross_validation_shapes(self):
        result = run_experiment("ext-netsim", seed=0, measure_ms=50.0)
        rows = {metric: measured for metric, _p, measured in result.rows}
        for app in ("web", "cache", "hadoop"):
            net_share, synth_share = map(
                float, str(rows[f"{app}: µburst share (netsim / synth)"]).split(" / ")
            )
            assert net_share > 0.5
            assert synth_share > 0.9


class TestExtChaos:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "ext-chaos",
            seed=0,
            fault_rate=0.2,
            n_windows=4,
            window_s=1.0,
            campaign_racks_per_app=1,
            campaign_hours=2,
            campaign_window_s=0.5,
        )

    def test_campaign_survives_injected_failures(self, result):
        rows = rows_dict(result)
        assert rows["campaign windows planned"] == 6
        ok, degraded, failed = (
            int(x) for x in str(rows["windows ok / degraded / failed"]).split(" / ")
        )
        assert ok + degraded + failed == 6
        completion = float(str(rows["completion at 20% window-failure rate"]).rstrip("%"))
        assert completion == pytest.approx(100.0 * (1 - failed / 6))

    def test_wraparound_residual_is_exactly_zero(self, result):
        assert rows_dict(result)["32-bit wraparound residual (bytes)"] == 0

    def test_reported_bound_covers_measured_shift(self, result):
        for metric, paper, measured in result.rows:
            if not metric.startswith("fig3 burst-CDF shift"):
                continue
            bound = float(str(paper).split("bound")[1].strip())
            ks = float(str(measured).split(" ")[0])
            assert ks <= bound

    def test_checkpointed_run_resumes(self, tmp_path):
        # A resumed run re-collects nothing, so every figure it reports —
        # retries included — must come from the checkpointed outcomes.
        for workers in (1, 2):
            checkpoint = tmp_path / f"ckpt-w{workers}"
            kwargs = dict(
                seed=3,
                fault_rate=0.3,
                n_windows=2,
                window_s=0.5,
                campaign_racks_per_app=1,
                campaign_hours=2,
                campaign_window_s=0.5,
                checkpoint_dir=str(checkpoint),
                workers=workers,
            )
            first = rows_dict(run_experiment("ext-chaos", **kwargs))
            resumed = rows_dict(run_experiment("ext-chaos", resume=True, **kwargs))
            assert (checkpoint / "shards.json").exists()
            assert resumed["windows ok / degraded / failed"] == first[
                "windows ok / degraded / failed"
            ]
            recovered = "transient faults recovered by retry"
            assert int(first[recovered]) > 0
            assert resumed[recovered] == first[recovered], f"workers={workers}"


class TestEcmpLinkWeights:
    def test_zero_weight_link_gets_no_flows(self, rng):
        shares = _ecmp_weight_segments(
            5_000, 4, 8, 200.0, 1.0, rng, link_weights=np.array([1.0, 1.0, 1.0, 0.0])
        )
        assert shares[:, 3].max() == 0.0
        assert np.allclose(shares.sum(axis=1), 1.0)

    def test_fractional_weight_reduces_share(self, rng):
        shares = _ecmp_weight_segments(
            200_000, 4, 16, 100.0, 1.0, rng,
            link_weights=np.array([1.0, 1.0, 1.0, 0.25]),
        )
        assert shares[:, 3].mean() < shares[:, 0].mean() / 2

    def test_all_zero_weights_rejected(self, rng):
        with pytest.raises(ConfigError):
            _ecmp_weight_segments(
                100, 4, 4, 100.0, 1.0, rng, link_weights=np.zeros(4)
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, rng, bad):
        with pytest.raises(ConfigError, match="finite"):
            _ecmp_weight_segments(
                100, 4, 4, 100.0, 1.0, rng, link_weights=np.array([1.0, bad, 1.0, 1.0])
            )

    def test_wrong_shape_rejected(self, rng):
        with pytest.raises(ConfigError):
            _ecmp_weight_segments(
                100, 4, 4, 100.0, 1.0, rng, link_weights=np.ones(3)
            )
