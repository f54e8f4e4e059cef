"""Span-based tracing for the measurement pipeline.

A span is one timed stage — an experiment, a campaign run, one window's
collection — recorded with ``time.monotonic_ns`` start/duration and its
parent span, so a campaign's wall time decomposes the same way the
paper's Table 1 decomposes read cost.  Spans nest through an explicit
per-thread stack; the finished records export as JSON lines with a
header stamping the package version and git describe.

Tracing is opt-in: the module-level :func:`span` helper is a no-op until
a :class:`Tracer` is installed (the CLI installs one for
``--trace-out``), so instrumented code needs no conditionals and pays
one function call when tracing is off.

Tracers are process-local by design.  Campaign shards running in pool
workers do not trace (their wall time is visible in the parent's shard
spans and in the merged ``backend.*`` latency histograms); this keeps
span ids single-writer and the JSONL export append-only.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import TelemetryError

#: Trace export schema version.
TRACE_VERSION = 1


class Span:
    """One in-flight (then finished) timed stage."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start_ns", "duration_ns")

    def __init__(
        self, span_id: int, parent_id: int | None, name: str, attrs: dict
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_ns = time.monotonic_ns()
        self.duration_ns: int | None = None

    def set_attr(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute while the span is open."""
        self.attrs[key] = value

    def as_record(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared stand-in yielded when no tracer is installed."""

    __slots__ = ()

    def set_attr(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; exports them as JSON lines.

    Span ids are unique per tracer; parent/child nesting follows the
    per-thread context stack, so concurrent threads produce interleaved
    but correctly-parented spans.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self.finished: list[dict] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1].span_id if stack else None
        record = Span(span_id, parent, name, dict(attrs))
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            stack.pop()
            record.duration_ns = time.monotonic_ns() - record.start_ns
            with self._lock:
                self.finished.append(record.as_record())

    def export_jsonl(self, path: str | Path) -> Path:
        """Write a header line plus one JSON line per finished span.

        The header stamps the trace format version and the build info
        (package version + git describe).
        """
        from repro.telemetry.export import build_info

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "header", "version": TRACE_VERSION, **build_info()}
        with self._lock:
            records = list(self.finished)
        lines = [json.dumps(header)]
        lines.extend(json.dumps(record) for record in records)
        path.write_text("\n".join(lines) + "\n")
        return path


# -- the process-global tracer -----------------------------------------------------

_TRACER: Tracer | None = None


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or with ``None`` remove) the ambient tracer; returns the
    previous one so tests can restore it."""
    global _TRACER
    if tracer is not None and not isinstance(tracer, Tracer):
        raise TelemetryError(f"expected a Tracer or None, got {type(tracer).__name__}")
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Span | _NullSpan]:
    """Time a stage under the ambient tracer; no-op when none installed."""
    tracer = _TRACER
    if tracer is None:
        yield _NULL_SPAN
        return
    with tracer.span(name, **attrs) as record:
        yield record
