"""Experiment harness tests.

Each experiment is run at reduced scale and its *qualitative* claims are
asserted — the quantitative comparison lives in EXPERIMENTS.md and the
benchmarks.  These tests pin the shape so regressions in the substrate
or analysis surface immediately.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment


def rows_dict(result):
    return {metric: measured for metric, _paper, measured in result.rows}


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        paper_ids = {
            "fig1", "fig2", "tab1", "fig3", "tab2", "fig4",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        }
        extension_ids = {
            "ext-cc", "ext-lb", "ext-pacing", "ext-failures", "ext-netsim",
            "ext-chaos",
        }
        assert set(EXPERIMENTS) == paper_ids | extension_ids

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_render_has_header(self):
        result = run_experiment("fig1", seed=0, n_links=200, samples_per_link=4)
        text = result.render()
        assert "paper" in text and "measured" in text

    def test_render_with_series(self):
        result = run_experiment("fig1", seed=0, n_links=200, samples_per_link=4)
        text = result.render(include_series=True)
        assert "series" in text


class TestBackendDispatch:
    def test_every_experiment_accepts_backend(self):
        from repro.experiments.registry import supports_backend

        for experiment_id in EXPERIMENTS:
            assert supports_backend(experiment_id), experiment_id

    def test_backend_synth_matches_default(self):
        default = run_experiment("fig3", seed=0, n_windows=3, window_s=0.5)
        explicit = run_experiment(
            "fig3", seed=0, n_windows=3, window_s=0.5, backend="synth"
        )
        assert default.rows == explicit.rows

    def test_fig3_runs_under_netsim(self):
        result = run_experiment(
            "fig3", seed=0, n_windows=2, window_s=0.5, backend="netsim"
        )
        rows = rows_dict(result)
        assert any("p90 burst duration" in metric for metric in rows)
        assert any("netsim" in note for note in result.notes)


class TestFig1:
    def test_weak_correlation(self):
        result = run_experiment("fig1", seed=0, n_links=3000, samples_per_link=8)
        corr = rows_dict(result)["utilization/drop correlation"]
        assert 0.0 < corr < 0.3


class TestFig2:
    def test_episodic_drops(self):
        result = run_experiment("fig2", seed=0, hours=12)
        rows = rows_dict(result)
        assert rows["low-util: minutes with zero drops"] > 0.5
        assert rows["high-util: minutes with zero drops"] > 0.3
        assert len(result.series["low_util_drops_per_min"]) == 720


class TestTab1:
    def test_miss_rates(self):
        result = run_experiment("tab1", seed=0, duration_s=0.5)
        rows = rows_dict(result)
        assert rows["miss rate @ 1 us"] > 0.95
        assert 0.05 < rows["miss rate @ 10 us"] < 0.2
        assert rows["miss rate @ 25 us"] < 0.03


class TestFig3:
    def test_p90_landmarks(self):
        result = run_experiment("fig3", seed=0, n_windows=8, window_s=1.0)
        rows = rows_dict(result)
        assert rows["web: p90 burst duration (us)"] <= 100
        assert rows["cache: p90 burst duration (us)"] <= 300
        assert rows["hadoop: p90 burst duration (us)"] <= 300
        for app in ("web", "cache", "hadoop"):
            assert rows[f"{app}: microburst (<1ms) share"] > 0.9

    def test_single_period_fractions(self):
        result = run_experiment("fig3", seed=0, n_windows=8, window_s=1.0)
        rows = rows_dict(result)
        assert rows["web: single-period bursts"] > 0.6
        assert rows["cache: single-period bursts"] > 0.5


class TestTab2:
    def test_ratios_far_above_one(self):
        result = run_experiment("tab2", seed=0, n_windows=8, window_s=1.0)
        rows = rows_dict(result)
        assert rows["web: likelihood ratio r"] > 30
        assert rows["cache: likelihood ratio r"] > 10
        assert rows["hadoop: likelihood ratio r"] > 5


class TestFig4:
    def test_poisson_rejected(self):
        result = run_experiment("fig4", seed=0, n_windows=8, window_s=1.0)
        for metric, _paper, measured in result.rows:
            if "KS p-value" in metric:
                p_value = float(str(measured).split()[0])
                assert p_value < 0.05

    def test_too_few_gaps_reported_not_raised(self):
        # A 2 ms window holds too few bursts for the KS test on some apps.
        result = run_experiment("fig4", seed=0, n_windows=1, window_s=0.002)
        rows = rows_dict(result)
        short = [app for app in ("web", "cache", "hadoop")
                 if str(rows[f"{app}: KS p-value vs exponential"]).startswith("n/a")]
        assert short
        for app in short:
            n_gaps = rows[f"{app}: p99 gap (ms)"]
            assert n_gaps == rows[f"{app}: gaps < 100us"]
            assert n_gaps.endswith(" gaps)")
            assert f"{app}_gap_cdf_us" not in result.series


class TestFig5:
    def test_large_packet_shift(self):
        result = run_experiment("fig5", seed=0, duration_s=5.0)
        rows = rows_dict(result)
        web = float(rows["web: relative large-packet increase"].strip("%+")) / 100
        cache = float(rows["cache: relative large-packet increase"].strip("%+")) / 100
        assert web > 0.3
        assert 0.0 < cache < 0.5
        assert rows["hadoop: MTU-bin share (always large)"] > 0.8


class TestFig6:
    def test_hadoop_hottest(self):
        result = run_experiment("fig6", seed=0, n_windows=8, window_s=1.0)
        rows = rows_dict(result)
        assert (
            rows["hadoop: time hot (>50%)"]
            > rows["cache: time hot (>50%)"]
            > rows["web: time hot (>50%)"]
        )


class TestFig7:
    def test_imbalance_at_small_timescale_only(self):
        result = run_experiment("fig7", seed=0, duration_s=4.0)
        rows = rows_dict(result)
        for app in ("web", "cache", "hadoop"):
            assert rows[f"{app} egress: median MAD @40us"] > 0.25
            assert rows[f"{app} egress: median MAD @1s"] < 0.25

    def test_window_shorter_than_one_second(self):
        result = run_experiment("fig7", seed=0, duration_s=0.05)
        rows = rows_dict(result)
        for app in ("web", "cache", "hadoop"):
            assert rows[f"{app} egress: median MAD @1s"] == "n/a (window < 1 s)"
            assert rows[f"{app} egress: median MAD @40us"] > 0.25


class TestFig8:
    def test_correlation_pattern(self):
        result = run_experiment("fig8", seed=0, duration_s=4.0)
        rows = rows_dict(result)
        assert abs(rows["web: mean pairwise correlation"]) < 0.1
        assert rows["cache: within-group correlation"] > 0.4
        assert 0.0 < rows["hadoop: mean pairwise correlation"] < 0.5


class TestFig9:
    def test_ordering_holds(self):
        result = run_experiment("fig9", seed=0, duration_s=4.0)
        rows = rows_dict(result)
        assert rows["web share < hadoop share < cache share ordering"] is True


class TestFig10:
    def test_hadoop_buffer_pressure(self):
        result = run_experiment("fig10", seed=0, duration_s=8.0, n_activity_windows=8)
        rows = rows_dict(result)
        assert (
            rows["hadoop: max fraction of ports simultaneously hot"]
            > rows["web: max fraction of ports simultaneously hot"]
        )
