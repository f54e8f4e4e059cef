"""Point-to-point link model.

A link carries packets from a sender to a receiver callback with
serialization delay (size / rate) followed by propagation delay.  The
link itself never queues: queueing happens in the egress port (switch
side) or NIC (host side) feeding it, which is where the paper's counters
live.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.units import serialization_time_ns

Receiver = Callable[[Packet], None]


class Link:
    """Unidirectional link; build two for a full-duplex cable."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_ns: int = 500,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigError(f"link {name!r} needs positive rate, got {rate_bps}")
        if propagation_ns < 0:
            raise ConfigError(f"link {name!r} negative propagation delay")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_ns = int(propagation_ns)
        self._receiver: Receiver | None = None
        # Packet sizes come from small per-application mixtures, so the
        # exact integer serialization time for each distinct size is
        # memoised: same rounding as serialization_time_ns, no per-packet
        # float arithmetic on the hot path.
        self._serialization_cache: dict[int, int] = {}

    def connect(self, receiver: Receiver) -> None:
        if self._receiver is not None:
            raise ConfigError(f"link {self.name!r} already connected")
        self._receiver = receiver

    def transmit(self, packet: Packet) -> int:
        """Start transmitting ``packet`` now.

        Returns the time at which the sender's transmitter frees up
        (end of serialization).  Delivery to the receiver happens one
        propagation delay later.
        """
        receiver = self._receiver
        if receiver is None:
            raise ConfigError(f"link {self.name!r} transmit before connect")
        # Serialization time is cached per packet size, and the clock
        # attribute is read directly: this runs once per packet per hop.
        cache = self._serialization_cache
        size = packet.size_bytes
        ser = cache.get(size)
        if ser is None:
            ser = cache[size] = serialization_time_ns(size, self.rate_bps)
        sim = self.sim
        done_ns = sim.clock.now + ser
        # Deliver via event args — no per-packet closure allocation.
        sim.schedule_at(done_ns + self.propagation_ns, receiver, packet)
        return done_ns
