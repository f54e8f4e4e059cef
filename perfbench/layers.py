"""Outside-in measurement of the pipeline's layers.

Two pieces, both built only from ``repro``'s public surface:

* :class:`TimedBackend` delegates the four ``MeasurementBackend`` methods
  (or a bare ``sample_window`` source) and times every call as the figure
  or campaign sees it.  Experiments accept it through ``backend=`` because
  ``resolve_backend`` passes instances through untouched.  Both the plain
  and the traced run use it.
* :func:`install_layer_spans` (traced run only) replaces public functions
  and methods with span-recording wrappers at the place their callers look
  them up: the figure module's imported name, or the class attribute.

Spans go to a ``repro.telemetry.spans.Tracer`` that is never installed
as the process tracer, so ``repro``'s own internal spans stay no-ops and
only the benchmark's wrappers record.  The tracer keeps finished spans
in memory; the pass writes them out once, when it ends.  Counts a
wrapper takes from a call (ticks, bytes, events) ride on its span as
numeric attributes.  A span's *self* time is its duration minus the time
its direct child spans cover; a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

from repro.telemetry.spans import Tracer


def span_totals(finished: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (seconds inside the spans),
    ``self_s`` (the same minus direct child spans) and the sum of each
    numeric span attribute."""
    child_ns: dict[int, int] = {}
    for record in finished:
        parent = record["parent_id"]
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + record["duration_ns"]
    totals: dict[str, dict[str, float]] = {}
    for record in finished:
        total = totals.setdefault(record["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        total["calls"] += 1
        total["s"] += record["duration_ns"] / 1e9
        total["self_s"] += (record["duration_ns"] - child_ns.get(record["span_id"], 0)) / 1e9
        for key, value in record["attrs"].items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return totals


@dataclass
class WindowLog:
    """Every backend window call one pass made, as its caller saw it."""

    latencies_ms: list[float] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    trace_ns: int = 0

    @property
    def attempts(self) -> int:
        return sum(self.calls.values())


class TimedBackend:
    """Delegating backend that logs each window call into a :class:`WindowLog`.

    Every call counts as an attempt; a latency is logged for each call that
    returned, and ``trace_ns`` adds up the simulated time the returned data
    covers.
    """

    def __init__(self, inner, log: WindowLog, tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.name = getattr(inner, "name", "source")
        self.log = log
        self.tracer = tracer

    def _call(self, method: str, *args, **kwargs):
        log = self.log
        log.calls[method] = log.calls.get(method, 0) + 1
        target = getattr(self.inner, method)
        start = time.perf_counter()
        if self.tracer is None:
            result = target(*args, **kwargs)
        else:
            with self.tracer.span(f"backends.{method}"):
                result = target(*args, **kwargs)
        log.latencies_ms.append((time.perf_counter() - start) * 1e3)
        log.trace_ns += covered_ns(result)
        return result

    def sample_window(self, window):
        return self._call("sample_window", window)

    def sample_histogram_window(self, window):
        return self._call("sample_histogram_window", window)

    def sample_rack_window(self, window, activity: float = 1.0):
        return self._call("sample_rack_window", window, activity=activity)

    def sample_buffer_window(self, window):
        return self._call("sample_buffer_window", window)


def covered_ns(result) -> int:
    """Simulated nanoseconds a backend result covers."""
    if isinstance(result, dict):
        return max((trace.duration_ns for trace in result.values()), default=0)
    if hasattr(result, "n_ticks"):  # RackWindow
        return int(result.n_ticks * result.tick_ns)
    return int(result.duration_ns)


# -- traced run: wrappers at the callers' lookup sites ---------------------------


def _wrap(owner, attr: str, span_name: str, tracer: Tracer, count=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as span:
            result = original(*args, **kwargs)
            if count is not None:
                span.attrs.update(count(args, result))
        return result

    setattr(owner, attr, wrapper)


def _onoff_ticks(args, _result) -> dict:
    return {"ticks": args[1]}


def _rack_port_ticks(_args, window) -> dict:
    return {"port_ticks": window.n_ticks * (window.n_downlinks + window.n_uplinks)}


def _burst_samples(args, _result) -> dict:
    return {"samples": len(args[0])}


def _saved_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _sampler_timing(_args, report) -> dict:
    return {"scheduled": report.timing.scheduled, "missed": report.timing.missed}


def _wrap_engine(tracer: Tracer) -> None:
    from repro.netsim import Simulator

    original = Simulator.run_until

    @functools.wraps(original)
    def run_until(self, *args, **kwargs):
        events, now = self.events_processed, self.now
        with tracer.span("netsim.run") as span:
            result = original(self, *args, **kwargs)
            span.attrs.update(events=self.events_processed - events, sim_ns=self.now - now)
        return result

    Simulator.run_until = run_until


#: (module, attribute path, span name, optional count hook).  A dotted
#: attribute path names a method on a class the module exports.
_FIGURE_MODULES = {
    "fig3": "repro.experiments.fig3_burst_durations",
    "fig4": "repro.experiments.fig4_interburst",
    "fig6": "repro.experiments.fig6_utilization",
    "fig7": "repro.experiments.fig7_load_balance",
    "fig8": "repro.experiments.fig8_server_correlation",
    "fig9": "repro.experiments.fig9_directionality",
    "fig10": "repro.experiments.fig10_buffer_occupancy",
    "tab2": "repro.experiments.tab2_markov",
}

_TARGETS = [
    # repro.synth
    ("repro.synth.rackmodel", "RackSynthesizer.synthesize", "synth.rack_synthesize", _rack_port_ticks),
    ("repro.synth.rackmodel", "RackSynthesizer.downlink_matrix", "synth.downlink_matrix", None),
    ("repro.synth.rackmodel", "RackSynthesizer.uplink_matrix", "synth.uplink_matrix", None),
    ("repro.synth.rackmodel", "correlated_utilization", "synth.correlated_utilization", None),
    ("repro.synth.onoff", "OnOffGenerator.generate", "synth.onoff_generate", _onoff_ticks),
    ("repro.synth.dataset", "utilization_to_byte_trace", "synth.byte_trace", None),
    ("repro.backends.synth", "utilization_to_byte_trace", "synth.byte_trace", None),
    ("repro.backends.synth", "synthesize_size_histogram", "synth.size_histogram", None),
    ("repro.synth.buffermodel", "BufferResponseModel.sample", "synth.buffer_model", None),
    # repro.core
    ("repro.core.campaign", "MeasurementCampaign.run", "core.campaign.run", None),
    ("repro.core.campaign", "save_traces", "core.traceio.save", _saved_bytes),
    ("repro.core.campaign", "load_traces", "core.traceio.load", None),
    ("repro.core.sampler", "HighResSampler.run_in_sim", "core.sampler.run_in_sim", _sampler_timing),
    ("repro.core.samples", "CounterTrace.utilization", "core.samples.utilization", None),
    ("repro.core.samples", "CounterTrace.decimate", "core.samples.decimate", None),
    # repro.faults
    ("repro.faults.sources", "FaultyWindowSource.sample_window", "faults.source", None),
    # repro.netsim / repro.workloads
    ("repro.backends.netsim", "build_rack", "netsim.build_rack", None),
    ("repro.workloads.base", "Workload.install", "workloads.install", None),
    # repro.analysis, looked up as each figure imported it
    ("fig3", "extract_bursts_from_trace", "analysis.bursts", _burst_samples),
    ("fig4", "extract_bursts_from_trace", "analysis.bursts", _burst_samples),
    ("tab2", "trace_hot_mask", "analysis.bursts", _burst_samples),
    ("repro.analysis", "extract_bursts_gap_aware", "analysis.bursts", _burst_samples),
    ("repro.analysis", "extract_bursts_from_trace", "analysis.bursts", _burst_samples),
    ("fig3", "EmpiricalCdf", "analysis.cdf", None),
    ("fig4", "EmpiricalCdf", "analysis.cdf", None),
    ("fig6", "EmpiricalCdf", "analysis.cdf", None),
    ("fig7", "EmpiricalCdf", "analysis.cdf", None),
    ("fig3", "cdf_series", "analysis.cdf", None),
    ("fig4", "cdf_series", "analysis.cdf", None),
    ("fig6", "cdf_series", "analysis.cdf", None),
    ("fig7", "cdf_series", "analysis.cdf", None),
    ("tab2", "fit_pooled_transition_matrix", "analysis.markov", None),
    ("fig4", "exponential_ks_test", "analysis.kstest", None),
    ("repro.analysis", "split_histogram_by_burst", "analysis.packetsizes", None),
    ("fig7", "normalized_mad_series", "analysis.mad", None),
    ("fig7", "resample_utilization", "analysis.mad", None),
    ("fig8", "resample_utilization", "analysis.mad", None),
    ("fig9", "resample_utilization", "analysis.mad", None),
    ("fig10", "resample_utilization", "analysis.mad", None),
    ("fig8", "pearson_matrix", "analysis.correlation", None),
    ("fig8", "mean_offdiagonal", "analysis.correlation", None),
    ("fig8", "block_mean_correlation", "analysis.correlation", None),
    ("fig9", "hot_share_by_direction", "analysis.hotports", None),
    ("fig10", "window_hot_port_counts", "analysis.hotports", None),
    ("fig10", "max_simultaneous_hot_fraction", "analysis.hotports", None),
    ("fig10", "occupancy_by_hot_ports", "analysis.bufferstats", None),
]


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every traced entry point; call once per fresh interpreter."""
    for module_name, attr_path, span_name, count in _TARGETS:
        owner = importlib.import_module(_FIGURE_MODULES.get(module_name, module_name))
        *owners, attr = attr_path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        _wrap(owner, attr, span_name, tracer, count)
    _wrap_engine(tracer)
