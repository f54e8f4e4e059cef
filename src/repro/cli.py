"""Command-line interface: ``repro <experiment> [options]``.

Examples
--------
    repro list
    repro fig3 --seed 1
    repro fig3 --backend netsim
    repro all --seed 0 --series

Results go to stdout; progress and timing diagnostics go through the
``repro`` logger (stderr by default) — ``-v`` for debug detail, ``-q``
for warnings only.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import get_logger, setup_logging

_log = get_logger("cli")


class _VersionAction(argparse.Action):
    """``--version``: package version + git describe, computed lazily so
    ordinary runs never pay the ``git describe`` subprocess."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.telemetry.export import git_describe, package_version

        print(f"repro {package_version()} ({git_describe()})")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'High-Resolution Measurement of "
            "Data Center Microbursts' (IMC 2017) on the simulated substrate."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (fig1..fig10, tab1, tab2, ext-*), 'all', 'list', "
            "'validate' (calibration scorecard vs the paper), "
            "'export' (write release-format distributions), or "
            "'compare' (diff a directory of distributions against us)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--backend",
        choices=("synth", "netsim"),
        default=None,
        metavar="NAME",
        help=(
            "measurement backend: 'synth' (default; calibrated vectorised "
            "synthesiser) or 'netsim' (packet-level simulator at a "
            "documented reduced scale)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="warnings only on stderr",
    )
    parser.add_argument(
        "--series",
        action="store_true",
        help="also print the raw (x, y) series behind each figure",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "full"),
        default="small",
        help="'full' uses campaign-scale data volumes (slow)",
    )
    parser.add_argument(
        "--dir",
        default="distributions",
        help="directory for 'export' output / 'compare' input",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "shard campaign collection across N worker processes "
            "(results are byte-identical to a serial run; experiments "
            "without a campaign to shard run serially)"
        ),
    )
    parser.add_argument(
        "--chaos",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "inject faults at this window-failure rate (ext-chaos only; "
            "e.g. 0.05 for the paper-scale 5%% chaos run)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint directory for resumable chaos campaigns (ext-chaos)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the ext-chaos campaign from --checkpoint instead of restarting",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print package version and git describe, then exit",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write a telemetry snapshot on exit: Prometheus text exposition "
            "when PATH ends in .prom/.txt, JSON (with build-info header) "
            "otherwise"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record pipeline spans and write them as JSON lines on exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-stage CPU time and peak RSS gauges (see --metrics-out)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable metric collection entirely (used by overhead benchmarks)",
    )
    return parser


def _scale_kwargs(experiment_id: str, scale: str) -> dict:
    if scale == "small":
        return {}
    full = {
        "fig3": dict(n_windows=240, window_s=10.0),
        "tab2": dict(n_windows=240, window_s=10.0),
        "fig4": dict(n_windows=240, window_s=10.0),
        "fig6": dict(n_windows=240, window_s=10.0),
        "fig5": dict(duration_s=120.0),
        "fig7": dict(duration_s=60.0),
        "fig8": dict(duration_s=60.0),
        "fig9": dict(duration_s=60.0),
        "fig10": dict(duration_s=120.0),
        "fig1": dict(n_links=20000),
        "tab1": dict(duration_s=10.0),
    }
    return full.get(experiment_id, {})


def _netsim_kwargs(experiment_id: str) -> dict:
    """Reduced data volumes for the packet-level backend: each window is a
    real simulation (capped at ~40 ms of simulated time), so the campaign
    shrinks to keep a CLI run interactive."""
    reduced = {
        "fig3": dict(n_windows=4),
        "fig4": dict(n_windows=4),
        "fig6": dict(n_windows=4),
        "tab2": dict(n_windows=4),
        "ext-cc": dict(n_windows=2),
        "ext-lb": dict(n_windows=2),
        "fig10": dict(n_activity_windows=4),
        "ext-chaos": dict(campaign_racks_per_app=1, campaign_hours=2),
    }
    return reduced.get(experiment_id, {})


def _finish_telemetry(args, tracer) -> None:
    """Export metrics/spans and log the one-line summary (at ``-v``)."""
    from repro.telemetry import (
        get_registry,
        install_tracer,
        write_metrics_json,
        write_metrics_prometheus,
    )

    registry = get_registry()
    if args.verbose > 0 and not args.quiet:
        _log.info("%s", registry.summary_line())
    if args.metrics_out:
        if args.metrics_out.endswith((".prom", ".txt")):
            path = write_metrics_prometheus(args.metrics_out, registry)
        else:
            path = write_metrics_json(
                args.metrics_out, registry, extra={"argv": sys.argv[1:]}
            )
        _log.info("wrote metrics to %s", path)
    if tracer is not None:
        install_tracer(None)
        if args.trace_out:
            _log.info("wrote spans to %s", tracer.export_jsonl(args.trace_out))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    from repro.telemetry import Tracer, install_tracer, set_enabled, set_profiling

    if args.no_telemetry:
        set_enabled(False)
    if args.profile:
        set_profiling(True)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install_tracer(tracer)
    try:
        return _dispatch(args)
    finally:
        _finish_telemetry(args, tracer)


def _distribution_windows(scale: str) -> int:
    """Windows per app behind ``export`` and ``compare``: both must collect
    the same amount of data at a given ``--scale``."""
    return 240 if scale == "full" else 24


def _dispatch(args) -> int:
    if args.experiment == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.experiment == "export":
        from repro.data.export import export_distributions

        paths = export_distributions(
            args.dir, seed=args.seed, n_windows=_distribution_windows(args.scale)
        )
        for path in paths:
            print(f"wrote {path}")
        return 0
    if args.experiment == "validate":
        from repro.synth.validation import calibration_scorecard

        n_ticks = 8_000_000 if args.scale == "full" else 2_000_000
        result = calibration_scorecard(seed=args.seed, n_ticks=n_ticks)
        print(result.render())
        return 1 if result.failed_checks else 0
    if args.experiment == "compare":
        from repro.data.export import compare_directory

        reports = compare_directory(
            args.dir, seed=args.seed, n_windows=_distribution_windows(args.scale)
        )
        for report in reports:
            print(
                f"{report['file']:>18}: p50 {report['reference_p50']:.4g} vs "
                f"{report['ours_p50']:.4g}  p90 {report['reference_p90']:.4g} vs "
                f"{report['ours_p90']:.4g}  KS {report['ks_distance']:.3f}"
            )
        return 0
    if args.resume and not args.checkpoint:
        _log.error("--resume requires --checkpoint DIR")
        return 2
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    json_payload = []
    if args.workers < 1:
        _log.error("--workers must be at least 1")
        return 2
    for experiment_id in targets:
        start = time.time()
        kwargs = _scale_kwargs(experiment_id, args.scale)
        if args.backend is not None:
            kwargs["backend"] = args.backend
            if args.backend == "netsim":
                kwargs.update(_netsim_kwargs(experiment_id))
        if args.workers != 1:
            kwargs["workers"] = args.workers
        if experiment_id == "ext-chaos":
            if args.chaos is not None:
                kwargs["fault_rate"] = args.chaos
            if args.checkpoint is not None:
                kwargs["checkpoint_dir"] = args.checkpoint
                kwargs["resume"] = args.resume
        _log.debug("running %s with %s", experiment_id, kwargs or "defaults")
        from repro.telemetry import profile_stage, span

        with span("experiment", id=experiment_id), profile_stage(experiment_id):
            result = run_experiment(experiment_id, seed=args.seed, **kwargs)
        if args.json:
            payload = result.to_dict(include_series=args.series)
            payload["seconds"] = round(time.time() - start, 2)
            json_payload.append(payload)
        else:
            print(result.render(include_series=args.series))
            print()
        _log.info("%s completed in %.1fs", experiment_id, time.time() - start)
    if args.json:
        import json

        print(json.dumps(json_payload, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
