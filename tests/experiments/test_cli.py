"""CLI tests."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.experiments import registry
from repro.experiments.common import ExperimentResult


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "tab1" in out


def test_single_experiment(capsys):
    assert main(["fig1", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "fig1" in captured.out
    assert "correlation" in captured.out
    # Diagnostics (timing) go through the logger to stderr, not stdout.
    assert "completed in" in captured.err
    assert "completed in" not in captured.out


def test_quiet_suppresses_diagnostics(capsys):
    assert main(["fig1", "--seed", "1", "-q"]) == 0
    captured = capsys.readouterr()
    assert "fig1" in captured.out
    assert "completed in" not in captured.err


def test_verbose_emits_debug(capsys):
    assert main(["fig1", "--seed", "1", "-v"]) == 0
    captured = capsys.readouterr()
    assert "running fig1" in captured.err


def test_series_flag(capsys):
    main(["fig2", "--seed", "1", "--series"])
    out = capsys.readouterr().out
    assert "series" in out


def test_unknown_experiment_raises():
    with pytest.raises(ConfigError):
        main(["fig42"])


def test_parser_defaults():
    args = build_parser().parse_args(["fig3"])
    assert args.seed == 0
    assert args.scale == "small"
    assert not args.series
    assert args.chaos is None
    assert args.checkpoint is None
    assert not args.resume
    assert args.backend is None
    assert args.verbose == 0
    assert not args.quiet


def test_backend_flag_parsed():
    args = build_parser().parse_args(["fig3", "--backend", "netsim"])
    assert args.backend == "netsim"


def test_backend_flag_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--backend", "quantum"])


def test_chaos_flags_parsed():
    args = build_parser().parse_args(
        ["ext-chaos", "--chaos", "0.05", "--checkpoint", "ckpt", "--resume"]
    )
    assert args.chaos == 0.05
    assert args.checkpoint == "ckpt"
    assert args.resume


def test_resume_without_checkpoint_rejected(capsys):
    assert main(["ext-chaos", "--resume"]) == 2
    assert "requires --checkpoint" in capsys.readouterr().err


def _verdicts(experiment_id, *passed):
    def runner(seed=0):
        result = ExperimentResult(experiment_id=experiment_id, title="t")
        for index, verdict in enumerate(passed):
            result.check(f"claim {index}", verdict)
        return result

    return runner


def test_failed_check_exits_1_after_every_experiment(monkeypatch, capsys):
    experiments = {"fig1": _verdicts("fig1", True, False), "fig2": _verdicts("fig2", True)}
    monkeypatch.setattr(registry, "EXPERIMENTS", experiments)
    monkeypatch.setattr(cli, "EXPERIMENTS", experiments)
    assert main(["all", "--json"]) == 1
    captured = capsys.readouterr()
    assert [result["experiment_id"] for result in json.loads(captured.out)] == ["fig1", "fig2"]
    failed = [line for line in captured.err.splitlines() if line.startswith("failed check")]
    assert failed == ["failed check: fig1: claim 1"]
