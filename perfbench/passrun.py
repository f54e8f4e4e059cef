"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object on
its last line of output.  Set-up time runs from the script's first
statement through importing ``repro``, building the backend and one
untimed warm-up window; peak RSS is this process's own.

    python3 perfbench/passrun.py --workload NAME --seed N --traced 0|1 \
        --pass-index I --out DIR
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Layers named after ``repro``'s packages (``experiments.self_s`` covers
#: the experiment roots).
LAYERS = ("synth", "analysis", "core", "netsim", "workloads", "backends", "faults")
BACKEND_METHODS = (
    "sample_window",
    "sample_histogram_window",
    "sample_rack_window",
    "sample_buffer_window",
)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(totals: dict, counters: dict, log, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass, from ``layers.span_totals``.
    ``<name>_s`` is the time inside calls to that entry point;
    ``self_s``-named ones exclude the time of nested spans."""

    def total(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    layer_self: dict[str, float] = {}
    for name, span in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + span["self_s"]
    attempts = log.calls.get("sample_window", 0)
    collected = counters.get("campaign.windows_ok", 0) + counters.get("campaign.windows_degraded", 0)
    save_s = total("core.traceio.save")
    run_s = total("netsim.run")
    metrics = {
        "synth.rack_synthesize_s": total("synth.rack_synthesize"),
        "synth.rack_port_ticks_per_s": _rate(
            total("synth.rack_synthesize", "port_ticks"), total("synth.rack_synthesize")
        ),
        "synth.downlink_matrix_s": total("synth.downlink_matrix"),
        "synth.uplink_matrix_s": total("synth.uplink_matrix"),
        "synth.correlated_utilization_s": total("synth.correlated_utilization"),
        "synth.correlated_utilization.calls": total("synth.correlated_utilization", "calls"),
        "synth.onoff_generate_s": total("synth.onoff_generate"),
        "synth.onoff_ticks_per_s": _rate(
            total("synth.onoff_generate", "ticks"), total("synth.onoff_generate")
        ),
        "synth.buffer_model_s": total("synth.buffer_model"),
        "analysis.bursts_s": total("analysis.bursts"),
        "analysis.bursts_samples_per_s": _rate(
            total("analysis.bursts", "samples"), total("analysis.bursts")
        ),
        "analysis.cdf_s": total("analysis.cdf"),
        "analysis.markov_s": total("analysis.markov"),
        "analysis.mad_s": total("analysis.mad"),
        "analysis.correlation_s": total("analysis.correlation"),
        "analysis.hotports_s": total("analysis.hotports"),
        "core.traceio.save_s": save_s,
        "core.traceio.load_s": total("core.traceio.load"),
        "core.traceio.bytes_written": total("core.traceio.save", "bytes"),
        "core.traceio.write_mb_per_s": _rate(total("core.traceio.save", "bytes") / 1e6, save_s),
        "core.campaign.run_s": total("core.campaign.run"),
        "core.campaign.self_s": total("core.campaign.run", "self_s"),
        "core.campaign.attempts": attempts,
        "core.campaign.retries": counters.get("campaign.window_retries", 0),
        "core.campaign.useful_ratio": _rate(collected, attempts),
        "core.sampler.run_in_sim_s": total("core.sampler.run_in_sim"),
        "core.sampler.missed_ratio": _rate(
            total("core.sampler.run_in_sim", "missed"),
            total("core.sampler.run_in_sim", "scheduled"),
        ),
        "core.samples.utilization_s": total("core.samples.utilization"),
        "netsim.build_rack_s": total("netsim.build_rack"),
        "workloads.install_s": total("workloads.install"),
        "netsim.run_s": run_s,
        "netsim.events": total("netsim.run", "events"),
        "netsim.events_per_s": _rate(total("netsim.run", "events"), run_s),
        "netsim.sim_ns_per_s": _rate(total("netsim.run", "sim_ns"), run_s),
        "faults.source_self_s": total("faults.source", "self_s"),
        "faults.injected": counters.get("faults.window_faults", 0),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        # experiment spans are the roots: their self time is figure glue code
        "trace.coverage_ratio": _rate(
            sum(own for layer, own in layer_self.items() if layer != "experiments"),
            wall_s,
        ),
    }
    for method in BACKEND_METHODS:
        metrics[f"backends.{method}.calls"] = log.calls.get(method, 0)
        metrics[f"backends.{method}_s"] = total(f"backends.{method}")
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import suite
    from checks import ADVISORY
    from layers import WindowLog, install_layer_spans, span_totals

    from repro.telemetry.metrics import get_registry
    from repro.telemetry.spans import Tracer

    workload = suite.WORKLOADS[args.workload]
    backend = suite.build_backend(workload, args.seed)
    suite.warm_up(workload, backend)
    setup_s = time.perf_counter() - SETUP_START

    registry = get_registry()
    registry.reset()
    tracer = None
    if args.traced:
        # not installed as the process tracer: repro's own spans stay no-ops
        tracer = Tracer()
        install_layer_spans(tracer)
    log = WindowLog()
    scratch = args.out / f"tmp-{args.workload}-{args.pass_index}"
    start = time.perf_counter()
    output = suite.run_pass(workload, backend, args.seed, log, tracer, scratch)
    wall_s = time.perf_counter() - start
    shutil.rmtree(scratch, ignore_errors=True)

    counters = registry.snapshot()["counters"]
    retries = counters.get("campaign.window_retries", 0)
    record = {
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "units": output.units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "window_ms": log.latencies_ms,
        "attempts": log.attempts,
        "windows": log.attempts - retries,
        "failed": output.failed_windows,
        "trace_s": log.trace_ns / 1e9,
        "digest": output.digest,
        "verdicts": sum(1 for name, _ok in output.verdicts if name not in ADVISORY),
        "verdicts_failed": [
            name for name, ok in output.verdicts if not ok and name not in ADVISORY
        ],
        "advisory_failed": [name for name, ok in output.verdicts if not ok and name in ADVISORY],
    }
    if tracer is not None:
        record["layers"] = layer_metrics(span_totals(tracer.finished), counters, log, wall_s)
        tracer.export_jsonl(
            args.out / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl"
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
