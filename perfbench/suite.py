"""The benchmark's workloads: what one measured pass runs and checks.

A pass is one fixed unit of work at a stated input size, driven from a
seed.  It goes through ``repro``'s public entry points only and returns
its output digest, the verdicts of the correctness gate, and the window
log the end-to-end metrics come from.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from checks import (
    APPS,
    byte_trace_verdicts,
    figure_verdicts,
    histogram_verdicts,
    result_digest,
    traces_digest,
)
from layers import TimedBackend, WindowLog

from repro import analysis
from repro.backends import NetsimBackend, SynthBackend, rack_window_spec, single_port_plan
from repro.core.campaign import MeasurementCampaign, RetryPolicy
from repro.experiments import run_experiment
from repro.experiments.common import app_byte_traces
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.telemetry.spans import Tracer
from repro.units import ms, seconds


@dataclass
class PassOutput:
    digest: str
    verdicts: list[tuple[str, bool]]
    #: host seconds per unit of the pass (a figure, or one app's campaigns)
    units: dict[str, float]
    #: windows that ended FAILED in a campaign (uncaught errors abort the pass)
    failed_windows: int = 0


@contextmanager
def _unit(units: dict[str, float], tracer: Tracer | None, name: str):
    """Time one unit of a pass; in a traced pass it is also an experiment root."""
    start = time.perf_counter()
    with tracer.span(f"experiments.{name}") if tracer is not None else nullcontext():
        yield
    units[name] = time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    #: (experiment id, keyword arguments) run through ``run_experiment``
    figures: tuple[tuple[str, dict], ...] = ()


# Input sizes per pass.  Each pass runs in its own interpreter; see run.py.
RACK_FIGURES = Workload(
    "rack-figures",
    "synth",
    (
        ("fig7", {"duration_s": 1.0}),
        ("fig8", {"duration_s": 1.0}),
        ("fig9", {"duration_s": 1.0}),
        ("fig10", {"duration_s": 3.0, "n_activity_windows": 48}),
    ),
)
PORT_FIGURES = Workload(
    "port-figures",
    "synth",
    tuple(
        (fig, {"n_windows": 48, "window_s": 2.0})
        for fig in ("fig3", "tab2", "fig4", "fig6")
    ),
)
CHECKPOINT_RESUME = Workload("checkpoint-resume", "synth")
NETSIM_WINDOWS = Workload("netsim-windows", "netsim")

WORKLOADS = {
    w.name: w for w in (RACK_FIGURES, PORT_FIGURES, CHECKPOINT_RESUME, NETSIM_WINDOWS)
}

#: checkpoint-resume: campaign size per app and the injected fault mix
CHECKPOINT_WINDOWS = 64
CHECKPOINT_WINDOW_S = 0.5
WINDOW_FAILURE_RATE = 0.05
SAMPLE_LOSS_RATE = 0.01
#: netsim-windows: fig3's and fig5's collection paths, both on web racks
#: and in windows of one length, so every timed window is alike.  A netsim
#: window's cost follows its event count: cache and hadoop windows cost a
#: fraction of a web window and vary 3-4x between seeds, so a pass that
#: mixed apps put its median window on the boundary between two groups.
NETSIM_APP = "web"
NETSIM_PORT_WINDOWS = 6
NETSIM_HIST_WINDOWS = 6
NETSIM_WINDOW_S = 0.005


def build_backend(workload: Workload, seed: int):
    if workload.backend == "netsim":
        return NetsimBackend(seed=seed)
    return SynthBackend(seed=seed)


def warm_up(workload: Workload, backend) -> None:
    """One untimed window of the kind the workload collects most."""
    if workload is RACK_FIGURES:
        backend.sample_rack_window(rack_window_spec("web", ms(50), experiment="warmup"))
    else:
        backend.sample_window(single_port_plan("web", 1, ms(1)).windows[0])


def run_pass(
    workload: Workload,
    backend,
    seed: int,
    log: WindowLog,
    tracer: Tracer | None,
    scratch: Path,
) -> PassOutput:
    if workload is CHECKPOINT_RESUME:
        return _checkpoint_resume(backend, seed, log, tracer, scratch)
    timed = TimedBackend(backend, log, tracer)
    if workload is NETSIM_WINDOWS:
        return _netsim_windows(timed, seed, tracer)
    results, units = {}, {}
    verdicts: list[tuple[str, bool]] = []
    for fig, kwargs in workload.figures:
        with _unit(units, tracer, fig):
            results[fig] = run_experiment(fig, seed=seed, backend=timed, **kwargs)
        verdicts += figure_verdicts(fig, results[fig])
    return PassOutput(result_digest(results), verdicts, units)


def _netsim_windows(timed: TimedBackend, seed: int, tracer: Tracer | None) -> PassOutput:
    """fig3's and fig5's netsim inputs, each with its per-window analysis.

    fig3 pools burst durations into a CDF, which is undefined when an
    app's few netsim windows hold no burst, and fig5 takes one histogram
    window per app.  So the pass runs both collection paths on web racks
    only, with several windows each."""
    app, units = NETSIM_APP, {}
    with _unit(units, tracer, "fig3_collection"):
        port_traces = app_byte_traces(
            app, seed=seed, n_windows=NETSIM_PORT_WINDOWS, window_s=NETSIM_WINDOW_S,
            backend=timed,
        )
        bursts = [int(analysis.extract_bursts_from_trace(t).n_bursts) for t in port_traces]
    with _unit(units, tracer, "fig5_collection"):
        hist_windows = [
            _byte_and_histogram(timed.sample_histogram_window(
                rack_window_spec(app, seconds(NETSIM_WINDOW_S), experiment="fig5", index=i)
            ))
            for i in range(NETSIM_HIST_WINDOWS)
        ]
        # fig5 splits at the paper's 100 us polling interval
        splits = [
            analysis.split_histogram_by_burst(byte_trace.decimate(4), hist_trace.decimate(4))
            for byte_trace, hist_trace in hist_windows
        ]
    verdicts = [v for trace in port_traces for v in byte_trace_verdicts(trace)]
    for byte_trace, hist_trace in hist_windows:
        verdicts += byte_trace_verdicts(byte_trace) + histogram_verdicts(byte_trace, hist_trace)
    summary = bursts + [(s.n_hot_periods, s.inside.tolist(), s.outside.tolist()) for s in splits]
    trace_sets = [{f"{app}/{i}": trace for i, trace in enumerate(port_traces)}]
    trace_sets += [{"bytes": byte_trace, "hist": hist} for byte_trace, hist in hist_windows]
    summary_digest = hashlib.sha256(repr(summary).encode()).hexdigest()
    return PassOutput(f"{traces_digest(trace_sets)}:{summary_digest}", verdicts, units)


def _byte_and_histogram(traces: dict) -> tuple:
    """The ``.tx_bytes`` and ``.tx_size_hist`` traces of one histogram window."""
    by_counter = {name.rsplit(".", 1)[1]: trace for name, trace in traces.items()}
    return by_counter["tx_bytes"], by_counter["tx_size_hist"]


def _checkpoint_resume(
    backend, seed: int, log: WindowLog, tracer: Tracer | None, scratch: Path
) -> PassOutput:
    """Fault-injected single-port campaigns that checkpoint, resume from
    the checkpoint, and run gap-aware burst analysis on what they read."""
    retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
    fault_plan = FaultPlan(
        seed=seed,
        window_failure_rate=WINDOW_FAILURE_RATE,
        sample_loss_rate=SAMPLE_LOSS_RATE,
    )
    verdicts: list[tuple[str, bool]] = []
    written_sets, summary, failed, units = [], [], 0, {}
    scratch.mkdir(parents=True, exist_ok=True)
    for app in APPS:
        plan = single_port_plan(app, CHECKPOINT_WINDOWS, seconds(CHECKPOINT_WINDOW_S), seed=seed)
        with _unit(units, tracer, f"checkpoint_resume.{app}"), \
                tempfile.TemporaryDirectory(dir=scratch) as checkpoint:
            source = TimedBackend(
                FaultyWindowSource(backend, FaultInjector(fault_plan)), log, tracer
            )
            written = MeasurementCampaign(
                plan, source, retry=retry, checkpoint_dir=checkpoint
            ).run()
            resumed = MeasurementCampaign(
                plan, source, retry=retry, checkpoint_dir=checkpoint
            ).run(resume=True)
            for traces in resumed.traces:
                for trace in traces.values():
                    stats = analysis.extract_bursts_gap_aware(trace)
                    summary.append(
                        (stats.stats.n_bursts, stats.n_segments, stats.n_missing_instants)
                    )
        failed += written.n_failed
        identical = traces_digest(written.traces) == traces_digest(resumed.traces)
        verdicts += [
            (f"{app}: resumed traces byte-identical to written", identical),
            (f"{app}: resumed outcomes match written",
             written.status_counts() == resumed.status_counts()),
        ]
        written_sets += written.traces
    summary_digest = hashlib.sha256(repr(summary).encode()).hexdigest()
    digest = f"{traces_digest(written_sets)}:{summary_digest}"
    return PassOutput(digest, verdicts, units, failed_windows=failed)
