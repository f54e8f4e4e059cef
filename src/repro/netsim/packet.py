"""Packet and flow identity.

A packet in this simulator is a metadata record: the switch model only
needs sizes and flow identity (for ECMP hashing and counter updates), not
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.units import MAX_FRAME, MIN_PACKET


class FiveTuple(NamedTuple):
    """Flow identity used by ECMP flow hashing.

    A named tuple, so the per-packet dict lookups keyed on flows (ECMP
    choice, transport state, reversal memo) hash and compare in C.
    """

    src_host: str
    dst_host: str
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP

    def reversed(self) -> "FiveTuple":
        """The identity of packets flowing the other way.

        Memoised (both directions at once): the ACK path reverses every
        data packet's flow, and flow identities recur for a flow's whole
        lifetime.
        """
        cached = _reversed_cache.get(self)
        if cached is None:
            if len(_reversed_cache) > _REVERSED_CACHE_MAX:
                _reversed_cache.clear()
            cached = FiveTuple(
                src_host=self.dst_host,
                dst_host=self.src_host,
                src_port=self.dst_port,
                dst_port=self.src_port,
                protocol=self.protocol,
            )
            _reversed_cache[self] = cached
            _reversed_cache[cached] = self
        return cached


#: flow -> reversed-flow memo; bounded so pathological campaigns with
#: millions of distinct flows cannot grow it without limit.
_reversed_cache: dict[FiveTuple, FiveTuple] = {}
_REVERSED_CACHE_MAX = 1 << 20


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    ``size_bytes`` is the on-wire frame size, which is what the switch
    byte counters and packet-size histogram bins observe.
    """

    flow: FiveTuple
    size_bytes: int
    seq: int = 0
    is_ack: bool = False
    #: ECN Congestion Experienced mark (set by the switch, echoed on acks).
    ce: bool = False

    def __post_init__(self) -> None:
        # The frame bound is the largest ASIC histogram bin, not the MTU:
        # rack MTU policy lives in RackConfig/WindowedTransport (where a
        # bad value fails fast with ConfigError at construction time);
        # this is the last-ditch guard that keeps the counter path total.
        if not MIN_PACKET <= self.size_bytes <= MAX_FRAME:
            raise ValueError(
                f"packet size {self.size_bytes} outside [{MIN_PACKET}, {MAX_FRAME}]"
            )
