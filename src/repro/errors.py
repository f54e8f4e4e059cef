"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the horizon."""


class CounterError(ReproError):
    """A counter was read or updated incorrectly."""


class SamplingError(ReproError):
    """The high-resolution sampler was misconfigured or misused."""


class CollectionError(ReproError):
    """A measurement window could not be collected (read failure, failed
    collection RPC, ...).

    Collection errors are *transient by contract*: the resilient campaign
    runner retries them with backoff before declaring the window failed.
    """


class FaultInjectionError(ReproError):
    """A fault plan is invalid or an injector was misused."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class TelemetryError(ReproError):
    """A telemetry metric, span, or snapshot was misused (name registered
    under two different types, mismatched histogram buckets on merge,
    malformed snapshot, ...)."""


class DataFormatError(ReproError):
    """A distribution data file does not match the expected schema."""


class CorruptTraceError(DataFormatError):
    """A trace archive failed its integrity check (truncation, bit
    corruption, or a length/CRC mismatch)."""
