"""Measurement campaigns.

Implements the paper's data-collection discipline (Sec 4.2): 30 racks (10
per application), and for each rack one randomly chosen port sampled over
one random 2-minute window in every hour of a day, capturing diurnal
variation while respecting data-retention limits.

Collection is *resilient*: the measurement plane is best-effort by design
(Table 1), so :class:`MeasurementCampaign` treats window failures as
first-class — bounded retry with backoff, optional per-window timeouts,
partial results with per-window status, and JSON-lines checkpointing so
an interrupted 24-hour campaign resumes at the last completed window
instead of being discarded.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from repro.core.samples import CounterTrace
from repro.core.traceio import load_traces, save_traces
from repro.errors import AnalysisError, CollectionError, ConfigError, ReproError
from repro.obs import get_logger
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.units import NS_PER_S, seconds

_log = get_logger("campaign")


@dataclass(frozen=True, slots=True)
class CampaignWindow:
    """One (rack, hour) measurement window."""

    rack_id: str
    rack_type: str
    port_name: str
    hour: int
    start_ns: int
    duration_ns: int

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


class WindowSource(Protocol):
    """Anything that can produce counter traces for a campaign window.

    This is the minimal capability a campaign needs; full measurement
    backends (:class:`repro.backends.MeasurementBackend`) are structural
    supersets, so every backend is a valid window source.
    """

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        """Collect traces covering ``window``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class CampaignPlan:
    """The full schedule of windows for a campaign."""

    windows: tuple[CampaignWindow, ...]

    @staticmethod
    def generate(
        racks: Iterable[tuple[str, str]],
        port_chooser: Callable[[str, np.random.Generator], str],
        rng: np.random.Generator,
        hours: int = 24,
        window_duration_ns: int = seconds(120),
    ) -> "CampaignPlan":
        """Random-port / random-window-per-hour schedule.

        Parameters
        ----------
        racks:
            ``(rack_id, rack_type)`` pairs, e.g. 10 each of web / cache /
            hadoop.
        port_chooser:
            Picks the one measured port for a rack (the paper samples a
            single random port per rack).
        """
        if hours <= 0:
            raise ConfigError("campaign needs at least one hour")
        hour_ns = seconds(3600)
        if window_duration_ns <= 0 or window_duration_ns > hour_ns:
            raise ConfigError("window must fit within an hour")
        windows: list[CampaignWindow] = []
        for rack_id, rack_type in racks:
            port = port_chooser(rack_id, rng)
            for hour in range(hours):
                offset = int(rng.integers(0, hour_ns - window_duration_ns + 1))
                windows.append(
                    CampaignWindow(
                        rack_id=rack_id,
                        rack_type=rack_type,
                        port_name=port,
                        hour=hour,
                        start_ns=hour * hour_ns + offset,
                        duration_ns=window_duration_ns,
                    )
                )
        return CampaignPlan(windows=tuple(windows))

    def windows_for_type(self, rack_type: str) -> list[CampaignWindow]:
        return [w for w in self.windows if w.rack_type == rack_type]

    @property
    def total_measured_seconds(self) -> float:
        return sum(w.duration_ns for w in self.windows) / NS_PER_S

    def digest(self) -> str:
        """Stable fingerprint of the schedule (guards checkpoint resume)."""
        blob = json.dumps(
            [
                [w.rack_id, w.rack_type, w.port_name, w.hour, w.start_ns, w.duration_ns]
                for w in self.windows
            ]
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class WindowStatus(enum.Enum):
    """Terminal state of one window's collection."""

    OK = "ok"  # collected on the first attempt, no degradation markers
    DEGRADED = "degraded"  # collected, but retried or with sample loss
    FAILED = "failed"  # retry budget exhausted; no traces

    @property
    def has_traces(self) -> bool:
        return self is not WindowStatus.FAILED


@dataclass(slots=True)
class WindowOutcome:
    """What happened when one window was collected."""

    index: int
    window: CampaignWindow
    status: WindowStatus
    attempts: int = 1
    error: str = ""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for window collection.

    Only :class:`~repro.errors.ReproError` failures are retried —
    anything else is a programming error and propagates.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    window_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigError("max_attempts must be positive")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ConfigError("backoff must be non-negative and non-shrinking")
        if self.window_timeout_s is not None and self.window_timeout_s <= 0:
            raise ConfigError("window timeout must be positive")


@dataclass(slots=True)
class CampaignResult:
    """Collected traces keyed by window, with per-window outcomes.

    ``traces`` and ``outcomes`` stay parallel to ``plan.windows`` — failed
    windows hold an empty dict — so positional pairing is always valid.
    """

    plan: CampaignPlan
    traces: list[dict[str, CounterTrace]]
    outcomes: list[WindowOutcome]

    def _check_aligned(self) -> None:
        if len(self.traces) != len(self.plan.windows):
            raise AnalysisError(
                f"campaign result misaligned: {len(self.traces)} trace sets for "
                f"{len(self.plan.windows)} planned windows — partial results must "
                "keep one (possibly empty) entry per window"
            )

    def by_type(self, rack_type: str) -> list[dict[str, CounterTrace]]:
        self._check_aligned()
        return [
            traces
            for window, traces in zip(self.plan.windows, self.traces)
            if window.rack_type == rack_type
        ]

    def iter_windows(self) -> Iterator[tuple[CampaignWindow, dict[str, CounterTrace]]]:
        self._check_aligned()
        return zip(self.plan.windows, self.traces)

    def completed(
        self, rack_type: str | None = None
    ) -> Iterator[tuple[CampaignWindow, dict[str, CounterTrace]]]:
        """(window, traces) pairs that actually hold data, optionally
        filtered by rack type — the gap-tolerant way to feed analysis."""
        for window, traces in self.iter_windows():
            if not traces:
                continue
            if rack_type is not None and window.rack_type != rack_type:
                continue
            yield window, traces

    def status_counts(self) -> dict[str, int]:
        counts = {status.value: 0 for status in WindowStatus}
        for outcome in self.outcomes:
            counts[outcome.status.value] += 1
        return counts

    @property
    def n_failed(self) -> int:
        return self.status_counts()[WindowStatus.FAILED.value]

    @property
    def completion_fraction(self) -> float:
        if not self.plan.windows:
            return 1.0
        return 1.0 - self.n_failed / len(self.plan.windows)


#: Checkpoint manifest schema version.
_MANIFEST_VERSION = 1


class MeasurementCampaign:
    """Executes a plan against a measurement backend, resiliently.

    This is the per-shard runner: everything in the package drives a
    campaign through :class:`repro.core.parallel.ParallelCampaign`, which
    runs one of these per shard.

    Parameters
    ----------
    plan / backend:
        The schedule and the data plane to collect from — anything
        satisfying :class:`WindowSource` (a full
        :class:`repro.backends.MeasurementBackend`, a bare synthetic
        source, or a fault-injecting wrapper around either).
    retry:
        Retry policy for failed windows.  ``None`` keeps the historical
        fail-fast behaviour (one attempt, errors propagate).
    checkpoint_dir:
        When set, every completed window is persisted there (a JSON-lines
        manifest plus one trace archive per window) and
        ``run(resume=True)`` restarts after the last completed window.
    sleep:
        Injectable backoff sleep (tests pass a no-op).
    """

    def __init__(
        self,
        plan: CampaignPlan,
        backend: WindowSource,
        retry: RetryPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self.backend = backend
        self.retry = retry
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._sleep = sleep

    # -- checkpointing -----------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / "manifest.jsonl"

    def _trace_path(self, index: int) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"window_{index:05d}.npz"

    def _load_checkpoint(self) -> dict[int, WindowOutcome]:
        """Replay the manifest; corrupt entries are re-collected.

        A crash mid-append leaves a torn last record (no trailing
        newline).  It is cut off, so its window counts as not done and
        the next append starts on a fresh line.
        """
        done: dict[int, WindowOutcome] = {}
        if self.checkpoint_dir is None or not self._manifest_path.exists():
            return done
        data = self._manifest_path.read_bytes()
        complete = data[: data.rfind(b"\n") + 1]
        if len(complete) < len(data):
            _log.warning(
                "dropping torn last record of %s (%d bytes)",
                self._manifest_path, len(data) - len(complete),
            )
            if complete:
                os.truncate(self._manifest_path, len(complete))
            else:
                self._manifest_path.unlink()
        digest = self.plan.digest()
        for line in complete.decode().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "header":
                if record.get("plan_digest") != digest:
                    raise CollectionError(
                        f"checkpoint at {self.checkpoint_dir} belongs to a "
                        "different campaign plan "
                        f"({record.get('plan_digest')} != {digest})"
                    )
                continue
            index = int(record["index"])
            if not 0 <= index < len(self.plan.windows):
                raise CollectionError(
                    f"checkpoint references window {index} outside the plan"
                )
            done[index] = WindowOutcome(
                index=index,
                window=self.plan.windows[index],
                status=WindowStatus(record["status"]),
                attempts=int(record.get("attempts", 1)),
                error=record.get("error", ""),
            )
        return done

    def _append_manifest(self, record: dict) -> None:
        with self._manifest_path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")

    def _checkpoint_window(
        self, outcome: WindowOutcome, traces: dict[str, CounterTrace]
    ) -> None:
        if self.checkpoint_dir is None:
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        if not self._manifest_path.exists():
            self._append_manifest(
                {
                    "kind": "header",
                    "version": _MANIFEST_VERSION,
                    "plan_digest": self.plan.digest(),
                    "n_windows": len(self.plan.windows),
                }
            )
        trace_file = None
        if traces:
            archive = self._trace_path(outcome.index)
            save_traces(archive, traces)
            trace_file = archive.name
            get_registry().counter(
                "campaign.checkpoint_bytes", "bytes persisted to window checkpoints"
            ).inc(archive.stat().st_size)
        self._append_manifest(
            {
                "index": outcome.index,
                "status": outcome.status.value,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "trace_file": trace_file,
            }
        )

    # -- collection --------------------------------------------------------------

    def _collect_once(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        timeout = self.retry.window_timeout_s if self.retry else None
        if timeout is None:
            return self.backend.sample_window(window)
        # One worker per attempt: a hung collection must not poison later
        # windows.  The abandoned worker is left to finish on its own.
        pool = ThreadPoolExecutor(max_workers=1)
        future = pool.submit(self.backend.sample_window, window)
        finished, _ = wait([future], timeout=timeout, return_when=FIRST_COMPLETED)
        if not finished:
            pool.shutdown(wait=False, cancel_futures=True)
            raise CollectionError(
                f"window {window.rack_id}/h{window.hour} timed out after {timeout}s"
            )
        pool.shutdown(wait=False)
        return future.result()

    @staticmethod
    def _is_degraded(traces: dict[str, CounterTrace]) -> bool:
        return any(trace.meta.get("samples_dropped", 0) > 0 for trace in traces.values())

    def _run_window(
        self, index: int, window: CampaignWindow
    ) -> tuple[WindowOutcome, dict[str, CounterTrace]]:
        registry = get_registry()
        retry = self.retry or RetryPolicy(max_attempts=1)
        delay = retry.backoff_s
        last_error = ""
        for attempt in range(1, retry.max_attempts + 1):
            try:
                traces = self._collect_once(window)
            except ReproError as exc:
                last_error = str(exc)
                if self.retry is None:
                    raise
                _log.debug(
                    "window %s/h%d attempt %d failed: %s",
                    window.rack_id, window.hour, attempt, exc,
                )
                if attempt < retry.max_attempts:
                    registry.counter(
                        "campaign.window_retries", "window collection attempts retried"
                    ).inc()
                    if delay > 0:
                        self._sleep(delay)
                    delay *= retry.backoff_factor
                continue
            status = WindowStatus.OK
            if attempt > 1 or self._is_degraded(traces):
                status = WindowStatus.DEGRADED
            outcome = WindowOutcome(
                index=index,
                window=window,
                status=status,
                attempts=attempt,
                error=last_error,
            )
            return outcome, traces
        _log.warning(
            "window %s/h%d failed after %d attempts: %s",
            window.rack_id, window.hour, retry.max_attempts, last_error,
        )
        outcome = WindowOutcome(
            index=index,
            window=window,
            status=WindowStatus.FAILED,
            attempts=retry.max_attempts,
            error=last_error,
        )
        return outcome, {}

    def run(self, resume: bool = False) -> CampaignResult:
        """Collect every window, tolerating per-window failures.

        With ``resume=True`` (and a checkpoint directory) previously
        completed windows are loaded from the checkpoint instead of being
        re-collected; because sources and fault injectors are keyed by
        window identity, a resumed run reproduces the traces an
        uninterrupted run would have produced.
        """
        registry = get_registry()
        done = self._load_checkpoint() if resume else {}
        traces_by_index: dict[int, dict[str, CounterTrace]] = {}
        outcomes: list[WindowOutcome] = []
        for index, outcome in list(done.items()):
            if outcome.status.has_traces:
                try:
                    traces_by_index[index] = load_traces(self._trace_path(index))
                except ReproError:
                    # Damaged checkpoint entry: forget it and re-collect.
                    del done[index]
            else:
                traces_by_index[index] = {}
        registry.counter(
            "campaign.windows_resumed", "windows restored from checkpoint"
        ).inc(len(done))
        with span("campaign.run", n_windows=len(self.plan.windows), resumed=len(done)):
            for index, window in enumerate(self.plan.windows):
                if index in done:
                    outcomes.append(done[index])
                    continue
                with span(
                    "campaign.window", rack=window.rack_id, hour=window.hour
                ) as window_span:
                    outcome, window_traces = self._run_window(index, window)
                    window_span.set_attr("status", outcome.status.value)
                registry.counter(
                    f"campaign.windows_{outcome.status.value}",
                    "window collections by terminal status",
                ).inc()
                traces_by_index[index] = window_traces
                outcomes.append(outcome)
                self._checkpoint_window(outcome, window_traces)
        outcomes.sort(key=lambda o: o.index)
        return CampaignResult(
            plan=self.plan,
            traces=[traces_by_index[i] for i in range(len(self.plan.windows))],
            outcomes=outcomes,
        )
