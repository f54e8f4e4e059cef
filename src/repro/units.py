"""Unit helpers and constants.

The simulator keeps time as integer nanoseconds to avoid floating-point
drift when accumulating microsecond-scale polling intervals over minutes
of simulated time.  Data sizes are bytes and rates are bits per second.
These helpers make call sites read like the paper: ``us(25)``,
``gbps(10)``, ``MTU``.
"""

from __future__ import annotations

# --- time (integer nanoseconds) ------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def us(value: float) -> int:
    """Microseconds expressed as integer nanoseconds."""
    return round(value * NS_PER_US)


def ms(value: float) -> int:
    """Milliseconds expressed as integer nanoseconds."""
    return round(value * NS_PER_MS)


def seconds(value: float) -> int:
    """Seconds expressed as integer nanoseconds."""
    return round(value * NS_PER_S)


def to_us(time_ns: int) -> float:
    """Integer nanoseconds back to float microseconds."""
    return time_ns / NS_PER_US


# --- data rates (bits per second) -----------------------------------------


def gbps(value: float) -> float:
    return value * 1e9


def bytes_per_interval(rate_bps: float, interval_ns: int) -> float:
    """How many bytes a link at ``rate_bps`` carries in ``interval_ns``."""
    return rate_bps * interval_ns / NS_PER_S / 8.0


def utilization(bytes_sent: float, rate_bps: float, interval_ns: int) -> float:
    """Fraction of link capacity used over an interval (may exceed 1.0
    transiently when a counter batches reads across a miss)."""
    capacity = bytes_per_interval(rate_bps, interval_ns)
    if capacity <= 0:
        raise ValueError(f"non-positive capacity for rate={rate_bps}, interval={interval_ns}")
    return bytes_sent / capacity


def serialization_time_ns(size_bytes: int, rate_bps: float) -> int:
    """Time to put ``size_bytes`` on the wire at ``rate_bps``."""
    return round(size_bytes * 8 * NS_PER_S / rate_bps)


# --- packet sizes ----------------------------------------------------------

MTU = 1500
"""Ethernet MTU in bytes (payload + headers as counted by switch ASICs)."""

MIN_PACKET = 64
"""Minimum Ethernet frame size in bytes."""

MAX_FRAME = 1518
"""Largest countable Ethernet frame in bytes (1500 B MTU + 18 B of
header/FCS) — the upper edge of the largest ASIC RMON histogram bin.
Rack MTUs above this cannot be binned by the switch counters and are
rejected at configuration time."""

TCP_HEADER_OVERHEAD = 66
"""Ethernet + IP + TCP header bytes for a typical data-center packet."""
