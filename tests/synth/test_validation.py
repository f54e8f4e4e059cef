"""Calibration scorecard tests."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.synth import validation
from repro.synth.validation import calibration_scorecard


@pytest.fixture(scope="module")
def scorecard():
    return calibration_scorecard(seed=0, n_ticks=800_000)


def test_all_checks_pass(scorecard):
    assert not scorecard.failed_checks, f"calibration drifted: {scorecard.failed_checks}"


def test_covers_every_app(scorecard):
    apps = {metric.split(":")[0] for metric, _target, _measured in scorecard.rows}
    assert apps == {"web", "cache", "hadoop", "all"}


def test_row_count(scorecard):
    # 5 checks for web/cache, 4 for hadoop (no single-period target), 1 global
    assert len(scorecard.rows) == len(scorecard.checks) == 5 + 5 + 4 + 1


def test_render_shows_status(scorecard):
    text = scorecard.render()
    assert "PASS" in text
    assert f"{len(scorecard.checks)}/{len(scorecard.checks)} checks passed" in text


def test_render_marks_failures():
    fake = ExperimentResult(experiment_id="validate", title="t")
    fake.check("web: m", False)
    assert "FAIL" in fake.render()
    assert "0/1" in fake.render()


def test_cli_validate_exit_code(capsys):
    from repro.cli import main

    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "15/15 checks passed" in out


def test_cli_validate_exits_1_when_a_check_fails(monkeypatch, capsys):
    from repro.cli import main

    def one_failure(seed, n_ticks):
        result = ExperimentResult(experiment_id="validate", title="t")
        result.check("web: p(1|1) 0.359 +/- 0.08", True)
        result.check("cache: p(1|1) 0.721 +/- 0.08", False)
        return result

    monkeypatch.setattr(validation, "calibration_scorecard", one_failure)
    assert main(["validate", "--seed", "0"]) == 1
    assert "FAIL  cache: p(1|1)" in capsys.readouterr().out
