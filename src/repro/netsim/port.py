"""Switch port model with ASIC-style counters.

Each port owns an egress queue backed by the switch's shared buffer and a
set of cumulative counters mirroring what the paper's framework polls:

* cumulative bytes and packets, per direction (Sec 4.1 "Byte count"),
* an egress packet-size histogram with ASIC-style bins (Sec 4.1 "Packet size"),
* congestion-drop counts (used by the coarse-grained Fig 1/2 analysis).

Counters are cumulative and never reset by the data plane; samplers
difference successive reads, so a missed poll loses resolution but not
bytes (Table 1 semantics).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.netsim.buffer import SharedBuffer
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet

#: Upper (inclusive) edge of each packet-size histogram bin, in bytes.
#: These are the classic Broadcom ASIC RMON bins the measured switches use.
SIZE_BIN_EDGES: tuple[int, ...] = (64, 127, 255, 511, 1023, 1518)

SIZE_BIN_LABELS: tuple[str, ...] = (
    "64",
    "65-127",
    "128-255",
    "256-511",
    "512-1023",
    "1024-1518",
)


#: Precomputed size -> bin-index table.  The linear edge scan this
#: replaces ran once per counted packet; a frame can only be 0..1518 B
#: (oversize MTUs are rejected at RackConfig construction time), so a
#: 1519-entry lookup table covers every legal frame.
_SIZE_BIN_TABLE: tuple[int, ...] = tuple(
    bisect.bisect_left(SIZE_BIN_EDGES, size) for size in range(SIZE_BIN_EDGES[-1] + 1)
)

_MAX_BINNED = SIZE_BIN_EDGES[-1]


def size_bin_index(size_bytes: int) -> int:
    """Histogram bin for a frame of ``size_bytes``."""
    if 0 <= size_bytes <= _MAX_BINNED:
        return _SIZE_BIN_TABLE[size_bytes]
    raise SimulationError(f"packet size {size_bytes} above largest bin")


@dataclass(slots=True)
class PortCounters:
    """Cumulative ASIC counters for one port.

    ``tx`` is the switch-egress direction (ToR -> attached device) and
    ``rx`` the switch-ingress direction.
    """

    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_drops: int = 0
    tx_size_hist: list[int] = field(default_factory=lambda: [0] * len(SIZE_BIN_EDGES))

    def record_tx(self, packet: Packet) -> None:
        self.tx_bytes += packet.size_bytes
        self.tx_size_hist[size_bin_index(packet.size_bytes)] += 1

    def record_rx(self, packet: Packet) -> None:
        self.rx_bytes += packet.size_bytes


class Port:
    """A single switch port: egress queue + drain loop + counters."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        egress_link: Link,
        shared_buffer: SharedBuffer,
        ecn=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.egress_link = egress_link
        self.shared_buffer = shared_buffer
        #: optional :class:`repro.netsim.ecn.EcnMarker`
        self.ecn = ecn
        self.counters = PortCounters()
        self._queue: deque[Packet] = deque()
        self._transmitting = False
        shared_buffer.register_queue(name)

    # -- data path -----------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        return self.egress_link.rate_bps

    @property
    def queue_depth_bytes(self) -> int:
        return self.shared_buffer.queue_bytes(self.name)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to this port's egress queue.

        Returns False (and counts a congestion drop) when the shared
        buffer's dynamic threshold rejects it.
        """
        ecn = self.ecn
        if ecn is not None:
            depth_at_arrival = self.shared_buffer.queue_bytes(self.name)
        if not self.shared_buffer.admit(self.name, packet.size_bytes):
            self.counters.tx_drops += 1
            return False
        if ecn is not None:
            ecn.observe(depth_at_arrival, packet)
        self._queue.append(packet)
        if not self._transmitting:
            self._start_next()
        return True

    def note_ingress(self, packet: Packet) -> None:
        """Count a packet arriving from the attached device."""
        self.counters.record_rx(packet)

    def _start_next(self) -> None:
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet = self._queue.popleft()
        done_ns = self.egress_link.transmit(packet)
        # Bound method + event args instead of a per-packet closure.
        self.sim.schedule_at(done_ns, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        # Buffer space is held until the packet has fully left the switch,
        # which is what makes concurrent bursts contend for shared memory.
        self.shared_buffer.release(self.name, packet.size_bytes)
        self.counters.record_tx(packet)
        self._start_next()
