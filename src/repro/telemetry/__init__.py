"""repro.telemetry: metrics, spans, and profiling for the pipeline.

The paper's headline result is a measurement of the measurement system
itself — polling miss rates, read latencies, CPU cost (Sec 4.1,
Table 1).  This package applies that discipline to the reproduction
pipeline:

* :mod:`~repro.telemetry.metrics` — a process-local registry of
  monotonic counters, high-water gauges, and fixed-bucket ns-latency
  histograms, with snapshots that merge across
  ``ProcessPoolExecutor`` shards (counters sum, gauges max, histogram
  buckets sum), so serial and ``--workers N`` campaigns report the same
  aggregate numbers.
* :mod:`~repro.telemetry.spans` — context-manager spans with
  monotonic-ns timing and parent/child nesting, exported as JSONL.
* :mod:`~repro.telemetry.profiling` — opt-in per-stage CPU time, wall
  time and RSS growth (``resource``).
* :mod:`~repro.telemetry.export` — Prometheus text exposition and JSON
  snapshots, headers stamped with the package version + git describe.

The hard rule, enforced by ``tests/test_determinism_lint.py`` and the
backend-parity golden CRCs: telemetry may *read* wall clocks but never
feeds simulation state — traces are byte-identical with telemetry on,
off, serial, or sharded.
"""

from repro.telemetry.export import (
    build_info,
    git_describe,
    package_version,
    snapshot_with_header,
    to_prometheus,
    write_metrics_json,
    write_metrics_prometheus,
)
from repro.telemetry.metrics import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    scoped_registry,
    set_enabled,
)
from repro.telemetry.profiling import profile_stage, set_profiling
from repro.telemetry.spans import Tracer, install_tracer, span

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_NS_BUCKETS",
    "get_registry",
    "scoped_registry",
    "set_enabled",
    # spans
    "Tracer",
    "span",
    "install_tracer",
    # profiling
    "profile_stage",
    "set_profiling",
    # export
    "build_info",
    "package_version",
    "git_describe",
    "to_prometheus",
    "snapshot_with_header",
    "write_metrics_json",
    "write_metrics_prometheus",
]
