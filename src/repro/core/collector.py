"""Collector service.

The switch CPU "batches the samples before sending them to a distributed
collector service that is both fine-grained and scalable" (Sec 4.1).  We
model the collector as an in-process sink with explicit batching, so the
tests can assert on batching behaviour and the campaign code can account
for data volume (the paper's 720 windows totalled 250 GB).

Sample loss is the sampler's business, not the collector's: polling is
best effort, and a missed instant is simply never recorded, so every
sample that reaches :meth:`CollectorService.record` lands in a trace.

Telemetry: shipped batches and bytes are the
``collector.batches_shipped`` / ``collector.bytes_shipped`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.counters import CounterSpec
from repro.core.samples import CounterTrace
from repro.errors import ConfigError, CounterError
from repro.telemetry.metrics import get_registry

#: Rough wire size of one sample record: 8-byte timestamp + 8-byte value
#: per scalar (histogram counters count one value per bin).
_BYTES_PER_SCALAR = 16


@dataclass(slots=True)
class _Stream:
    spec: CounterSpec
    timestamps: list[int] = field(default_factory=list)
    values: list = field(default_factory=list)
    pending: int = 0


class CollectorService:
    """Accumulates samples per counter, flushing in batches.

    Parameters
    ----------
    batch_size:
        Number of samples the switch CPU buffers per counter before
        shipping a batch to the collector.
    """

    def __init__(self, batch_size: int = 512) -> None:
        if batch_size <= 0:
            raise ConfigError("batch size must be positive")
        self.batch_size = batch_size
        self._streams: dict[str, _Stream] = {}

    def register(self, spec: CounterSpec) -> None:
        """Open a counter's stream."""
        if spec.name in self._streams:
            raise CounterError(f"counter {spec.name!r} registered twice")
        self._streams[spec.name] = _Stream(spec=spec)

    def record(self, name: str, timestamp_ns: int, value: int | tuple[int, ...]) -> None:
        """Append one sample to a counter's stream."""
        try:
            stream = self._streams[name]
        except KeyError:
            raise CounterError(f"record for unregistered counter {name!r}") from None
        stream.timestamps.append(timestamp_ns)
        stream.values.append(value)
        stream.pending += 1
        if stream.pending >= self.batch_size:
            self._ship(stream)

    @staticmethod
    def _ship(stream: _Stream) -> None:
        value = stream.values[-1]
        width = len(value) if isinstance(value, tuple) else 1
        registry = get_registry()
        registry.counter("collector.batches_shipped").inc()
        registry.counter("collector.bytes_shipped").inc(
            stream.pending * width * _BYTES_PER_SCALAR
        )
        stream.pending = 0

    def finalize(self) -> dict[str, CounterTrace]:
        """Flush everything and return one trace per counter."""
        traces: dict[str, CounterTrace] = {}
        for name, stream in self._streams.items():
            if stream.pending:
                self._ship(stream)
            traces[name] = CounterTrace(
                timestamps_ns=np.asarray(stream.timestamps, dtype=np.int64),
                values=np.asarray(stream.values),
                kind=stream.spec.value_kind,
                name=name,
                rate_bps=stream.spec.rate_bps,
            )
        return traces
