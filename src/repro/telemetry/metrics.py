"""Process-local metrics: counters, gauges, and ns-latency histograms.

The paper measures its own measurement plane — polling-loop miss rates,
read latencies, and CPU cost are first-class results (Sec 4.1, Table 1)
— so this pipeline carries the same discipline: every layer increments
metrics in a process-local :class:`MetricsRegistry`, and the registry's
:meth:`~MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.merge_snapshot`
pair makes those metrics *mergeable across process shards* the same way
campaign traces already are.

Design rules
------------
* **Telemetry never feeds simulation state.**  Metrics may read wall
  clocks, but nothing in the data path reads a metric back, so traces
  stay byte-identical with telemetry on or off (the backend-parity
  golden CRCs hold either way).
* **Cheap when off, cheap when on.**  Instrumentation sites call
  :func:`get_registry` at use time; :func:`set_enabled` swaps in a
  null registry whose metric objects are shared no-op singletons.
  Even when enabled, nothing in a per-event hot loop touches the
  registry — engine/event costs are read off existing engine counters
  after a window completes.
* **Merge semantics.**  Counters are monotonic and *sum*; gauges are
  high-water marks and merge by *max*; histograms sum their fixed
  bucket counts.  Under that rule a serial campaign and a
  ``--workers N`` campaign report identical aggregate counters for the
  same plan (held by ``tests/telemetry/test_instrumentation.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

from repro.errors import TelemetryError

#: Snapshot schema version (bumped when the merge format changes).
SNAPSHOT_VERSION = 1

#: Default histogram buckets for nanosecond latencies: 1 us .. 100 s in
#: decades, wide enough for a 25 us ASIC read and a multi-second netsim
#: window alike.  Bucket ``i`` counts observations ``<= bounds[i]``;
#: anything larger lands in the implicit +Inf bucket.
DEFAULT_NS_BUCKETS: tuple[int, ...] = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
)


class Counter:
    """A monotonic counter.  Merges across shards by summation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A high-water-mark gauge.  Merges across shards by max."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (cumulative-bucket exposition).

    Buckets are upper bounds in ascending order; an observation lands in
    the first bucket whose bound is >= the value, or in the implicit
    +Inf bucket.  ``sum``/``count`` track exact totals so the mean
    survives the bucketing.
    """

    __slots__ = ("name", "bounds", "counts", "inf_count", "sum", "count")

    def __init__(self, name: str, bounds: tuple[int, ...] = DEFAULT_NS_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {name!r} needs strictly increasing bucket bounds"
            )
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self.inf_count += 1
        else:
            self.counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Shared no-op registry installed when telemetry is disabled.

    Every accessor returns a shared do-nothing metric, so instrumented
    code pays one function call and nothing else.
    """

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: tuple[int, ...] = DEFAULT_NS_BUCKETS
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> dict:
        return {"version": SNAPSHOT_VERSION, "counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def reset(self) -> None:
        pass

    def summary_line(self) -> str:
        return "telemetry disabled"


class MetricsRegistry:
    """Names -> metric objects, with mergeable snapshots.

    Metric names are dotted (``campaign.windows_ok``); the Prometheus
    exporter sanitises them to ``repro_campaign_windows_ok``.  A name is
    permanently bound to its first-registered type — re-registering
    under a different type raises :class:`~repro.errors.TelemetryError`
    instead of silently shadowing.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration ------------------------------------------------------------

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise TelemetryError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: tuple[int, ...] = DEFAULT_NS_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, "histogram")
            metric = self._histograms[name] = Histogram(name, bounds)
        elif metric.bounds != tuple(bounds):
            raise TelemetryError(
                f"histogram {name!r} re-registered with different buckets "
                f"({metric.bounds} != {tuple(bounds)})"
            )
        return metric

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data copy of every metric, safe to pickle across
        process boundaries and feed to :meth:`merge_snapshot`."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "inf_count": h.inf_count,
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one shard's snapshot into this registry.

        Counters sum, gauges take the max, histograms sum bucket counts.
        Merging is commutative and associative, so shard join order
        (``as_completed`` is nondeterministic) cannot change the result.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise TelemetryError(
                f"cannot merge telemetry snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(float(value))
        for name, record in snapshot.get("histograms", {}).items():
            bounds = tuple(record["bounds"])
            histogram = self.histogram(name, bounds=bounds)
            counts = record["counts"]
            if len(counts) != len(histogram.counts):
                raise TelemetryError(
                    f"histogram {name!r} snapshot has {len(counts)} buckets, "
                    f"registry has {len(histogram.counts)}"
                )
            for index, count in enumerate(counts):
                histogram.counts[index] += int(count)
            histogram.inf_count += int(record["inf_count"])
            histogram.sum += record["sum"]
            histogram.count += int(record["count"])

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- reporting ---------------------------------------------------------------

    def summary_line(self) -> str:
        """One line for the CLI's ``-v`` diagnostics: headline pipeline
        counters when present, sizes otherwise."""
        parts = [
            f"{len(self._counters)} counters, {len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms"
        ]
        windows = [
            self._counters[key].value
            for key in (
                "campaign.windows_ok",
                "campaign.windows_degraded",
                "campaign.windows_failed",
            )
            if key in self._counters
        ]
        if len(windows) == 3:
            parts.append(
                "windows ok/degraded/failed {}/{}/{}".format(*windows)
            )
        for key, label in (
            ("sampler.instants_missed", "sampler misses"),
            ("netsim.events_processed", "netsim events"),
            ("traceio.bytes_written", "trace bytes"),
        ):
            if key in self._counters:
                parts.append(f"{label} {self._counters[key].value}")
        return "telemetry: " + " | ".join(parts)


# -- the process-global registry ---------------------------------------------------

_NULL_REGISTRY = NullRegistry()
_REGISTRY: MetricsRegistry | NullRegistry = MetricsRegistry()
_ENABLED = True


def get_registry() -> MetricsRegistry | NullRegistry:
    """The ambient registry instrumentation sites write to.

    Resolved at call time (never cached by callers) so
    :func:`set_enabled` and :func:`scoped_registry` take effect
    everywhere at once.
    """
    return _REGISTRY


def set_enabled(flag: bool) -> None:
    """Enable or disable metric collection process-wide.

    Disabling swaps the ambient registry for a shared no-op registry;
    re-enabling restores a fresh real one (previous contents are kept
    only across enable -> enable transitions).
    """
    global _REGISTRY, _ENABLED
    if flag and not _ENABLED:
        _REGISTRY = MetricsRegistry()
    elif not flag and _ENABLED:
        _REGISTRY = _NULL_REGISTRY
    _ENABLED = flag


@contextmanager
def scoped_registry() -> Iterator["MetricsRegistry | NullRegistry"]:
    """Run a block against a fresh registry, restoring the previous one.

    This is the shard boundary: ``repro.core.parallel._collect_shard``
    wraps each shard's campaign in a scope so the returned snapshot
    holds exactly that shard's increments — nothing inherited from a
    forked parent, nothing leaked between shards that share a worker
    process — and the parent merges the snapshots at join.
    """
    global _REGISTRY
    if not _ENABLED:
        # Disabled means disabled everywhere: the shard collects nothing
        # and its (empty) snapshot merges into the null registry upstream.
        yield _NULL_REGISTRY
        return
    previous = _REGISTRY
    fresh = MetricsRegistry()
    _REGISTRY = fresh
    try:
        yield fresh
    finally:
        _REGISTRY = previous
