"""Shared experiment scaffolding.

Every fig/tab experiment gets its data through the helpers here, which
run the *campaign pipeline* over a :mod:`repro.backends` measurement
backend: build a plan, execute it with
:class:`~repro.core.parallel.ParallelCampaign` (``workers=1`` is the
serial run), and hand each trace's reduction, or the rack windows, to
analysis.  The ``backend`` argument accepted throughout is a backend
name (``"synth"`` / ``"netsim"``), an instance, or ``None`` for the
synth default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, TypeVar

import numpy as np

from repro.analysis.report import format_comparison
from repro.backends import MeasurementBackend, rack_window_spec, resolve_backend, single_port_plan
from repro.core.parallel import ParallelCampaign
from repro.core.samples import CounterTrace
from repro.synth.rackmodel import RackWindow
from repro.units import seconds

APPS = ("web", "cache", "hadoop")

T = TypeVar("T")


@dataclass(slots=True)
class ExperimentResult:
    """Outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: list[tuple[str, object, object]] = field(default_factory=list)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def add(self, metric: str, paper: object, measured: object) -> None:
        self.rows.append((metric, paper, measured))

    def check(self, name: str, passed: object) -> None:
        """Record one paper verdict: a named claim the rows meet or miss."""
        self.checks.append((name, bool(passed)))

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, passed in self.checks if not passed]

    def add_series(self, name: str, points: list[tuple[float, float]]) -> None:
        self.series[name] = points

    def render(self, include_series: bool = False) -> str:
        parts = [
            format_comparison(self.rows, title=f"{self.experiment_id}: {self.title}")
        ]
        for name, passed in self.checks:
            parts.append(f"check: {'PASS' if passed else 'FAIL'}  {name}")
        if self.checks:
            n_passed = len(self.checks) - len(self.failed_checks)
            parts.append(f"{n_passed}/{len(self.checks)} checks passed")
        for note in self.notes:
            parts.append(f"note: {note}")
        if include_series:
            for name, points in self.series.items():
                parts.append(f"series {name}:")
                parts.extend(f"  {x:.6g} {y:.6g}" for x, y in points)
        return "\n".join(parts)

    def to_dict(self, include_series: bool = False) -> dict:
        """Machine-readable form (the CLI's --json output)."""
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [
                {"metric": metric, "paper": _jsonable(paper), "measured": _jsonable(measured)}
                for metric, paper, measured in self.rows
            ],
            "checks": [{"name": name, "passed": passed} for name, passed in self.checks],
            "notes": list(self.notes),
        }
        if include_series:
            payload["series"] = {
                name: [[x, y] for x, y in points]
                for name, points in self.series.items()
            }
        return payload


def _jsonable(value: object) -> object:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def reduce_app_traces(
    app: str,
    reduce: Callable[[CounterTrace], T],
    seed: int,
    n_windows: int,
    window_s: float,
    backend: MeasurementBackend | str | None = None,
    workers: int = 1,
) -> list[T]:
    """``reduce`` of every single-port byte trace of one application, in
    plan order (the common input of the Fig 3/4/6 and Table 2
    experiments).

    A :func:`~repro.backends.single_port_plan` executed against the
    resolved backend, with ``reduce`` applied to each trace inside its
    shard as soon as the window is collected: only the products cross
    the shard boundary, and no caller holds a whole campaign's traces.
    ``workers > 1`` shards the campaign across processes (``reduce`` must
    then pickle); the backends' window-keyed seeding keeps the result
    byte-identical to the serial run.
    """
    resolved = resolve_backend(backend, seed=seed)
    plan = single_port_plan(app, n_windows, seconds(window_s), seed=seed)
    campaign = ParallelCampaign(
        plan, resolved, workers=workers, reduce=partial(_reduce_window, reduce)
    )
    return [product for products in campaign.run().traces for product in products]


def _reduce_window(
    reduce: Callable[[CounterTrace], T], traces: dict[str, CounterTrace]
) -> list[T]:
    return [reduce(trace) for trace in traces.values()]


def _same_trace(trace: CounterTrace) -> CounterTrace:
    return trace


def app_byte_traces(
    app: str,
    seed: int,
    n_windows: int,
    window_s: float,
    backend: MeasurementBackend | str | None = None,
    workers: int = 1,
) -> list[CounterTrace]:
    """The traces themselves: :func:`reduce_app_traces` with the identity
    reduction, for analyses that need whole traces (ext-chaos)."""
    return reduce_app_traces(app, _same_trace, seed, n_windows, window_s, backend, workers)


def histogram_window(
    app: str,
    seed: int,
    duration_s: float,
    backend: MeasurementBackend | str | None = None,
    experiment: str = "hist",
) -> dict[str, CounterTrace]:
    """One window's byte trace + packet-size-histogram trace (Fig 5)."""
    resolved = resolve_backend(backend, seed=seed)
    spec = rack_window_spec(app, seconds(duration_s), experiment=experiment)
    return resolved.sample_histogram_window(spec)


def rack_window(
    app: str,
    seed: int,
    duration_s: float,
    backend: MeasurementBackend | str | None = None,
    experiment: str = "rack",
    index: int = 0,
    activity: float = 1.0,
) -> RackWindow:
    """One whole-rack utilization window (Figs 7-10).

    ``experiment``/``index`` key the window's identity, so each figure —
    and each activity span within a figure — draws an independent
    deterministic stream from the backend.
    """
    resolved = resolve_backend(backend, seed=seed)
    spec = rack_window_spec(app, seconds(duration_s), experiment=experiment, index=index)
    return resolved.sample_rack_window(spec, activity=activity)


def backend_note(backend: MeasurementBackend | str | None) -> str | None:
    """A result note when an experiment runs on a non-default backend."""
    if backend is None:
        return None
    name = backend if isinstance(backend, str) else backend.name
    if name == "synth":
        return None
    return (
        f"collected through the {name!r} backend (packet-level, documented "
        "reduced scale: single rack, windows capped at ~40 ms of simulation)"
    )
