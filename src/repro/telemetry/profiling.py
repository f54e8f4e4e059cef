"""Lightweight per-stage profiling hooks.

Sec 4.1 reports the framework's own CPU cost alongside its precision;
these hooks give the pipeline the same self-accounting: wrap a stage in
:func:`profile_stage` and its CPU time (user+system, via ``resource``),
wall time, and RSS growth land in the metrics registry as gauges —
``profile.<stage>.cpu_ns`` / ``.wall_ns`` / ``.rss_growth_bytes``.
``rss_growth_bytes`` is how far the stage raised the process's RSS
high-water mark (``ru_maxrss`` after minus before), so a stage that runs
after a larger one reads 0 instead of repeating that stage's peak.

Profiling is opt-in (``set_profiling(True)`` or the CLI's
``--profile``): when off, :func:`profile_stage` yields
immediately and touches neither ``resource`` nor the clock.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.metrics import get_registry

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

_PROFILING = False


def set_profiling(flag: bool) -> None:
    global _PROFILING
    _PROFILING = bool(flag)


def _cpu_ns() -> int:
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return time.process_time_ns()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def _peak_rss_bytes() -> int:
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


@contextmanager
def profile_stage(stage: str) -> Iterator[None]:
    """Record one stage's CPU/wall/RSS-growth cost into the metrics registry."""
    if not _PROFILING:
        yield
        return
    registry = get_registry()
    cpu_before = _cpu_ns()
    wall_before = time.monotonic_ns()
    rss_before = _peak_rss_bytes()
    try:
        yield
    finally:
        registry.gauge(f"profile.{stage}.wall_ns").set_max(
            time.monotonic_ns() - wall_before
        )
        registry.gauge(f"profile.{stage}.cpu_ns").set_max(_cpu_ns() - cpu_before)
        registry.gauge(f"profile.{stage}.rss_growth_bytes").set_max(
            _peak_rss_bytes() - rss_before
        )
