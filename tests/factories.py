"""Small builders the tests share and production code never needs.

``regular_trace`` puts counter values on a perfectly regular sampling
grid; ``SMOKE_SCALE`` is a netsim scale small enough that one window
simulates in well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.backends import NetsimScale
from repro.core.samples import CounterTrace, ValueKind
from repro.units import ms

#: CI-sized netsim scale: 4 downlinks, 2 uplinks, 6 ms windows.
SMOKE_SCALE = NetsimScale(
    n_downlinks=4,
    n_uplinks=2,
    n_remote_hosts=8,
    warmup_ns=ms(3),
    max_window_ns=ms(6),
)


def regular_trace(
    interval_ns: int,
    values: np.ndarray,
    kind: ValueKind,
    name: str = "",
    rate_bps: float = 0.0,
    start_ns: int = 0,
) -> CounterTrace:
    """A trace sampled every ``interval_ns`` from ``start_ns``."""
    timestamps = start_ns + interval_ns * np.arange(len(values), dtype=np.int64)
    return CounterTrace(
        timestamps_ns=timestamps, values=values, kind=kind, name=name, rate_bps=rate_bps
    )
