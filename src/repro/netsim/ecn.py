"""ECN marking and a DCTCP-style transport.

Sec 7 ("Implications for congestion control") argues that ECN- and
RTT-based congestion control reacts at least RTT/2 after the signal,
while many µbursts are shorter than one RTT.  To let experiments quantify
that, the switch can mark packets whose egress queue exceeds a threshold
(the DCTCP 'K' parameter), and :class:`DctcpTransport` adapts its window
to the marked fraction like DCTCP (Alizadeh et al., SIGCOMM 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.netsim.engine import Simulator
from repro.netsim.host import Nic, WindowedTransport
from repro.netsim.packet import FiveTuple, Packet
from repro.units import MTU, ms


@dataclass(frozen=True, slots=True)
class EcnConfig:
    """Switch-side marking configuration.

    ``mark_threshold_bytes`` is the per-queue depth above which arriving
    packets are CE-marked (DCTCP's K).  The paper-era guidance is
    K ~ 20-80 packets for 10 G links.
    """

    mark_threshold_bytes: int = 30 * 1500

    def __post_init__(self) -> None:
        if self.mark_threshold_bytes <= 0:
            raise ConfigError("ECN threshold must be positive")


class EcnMarker:
    """Per-queue threshold marking, attached to switch ports."""

    def __init__(self, config: EcnConfig | None = None) -> None:
        self.config = config or EcnConfig()
        self.packets_seen = 0
        self.packets_marked = 0

    def observe(self, queue_depth_bytes: int, packet: Packet) -> None:
        """Mark ``packet`` (set ``ce``) if the queue is past threshold."""
        self.packets_seen += 1
        if queue_depth_bytes > self.config.mark_threshold_bytes:
            packet.ce = True
            self.packets_marked += 1


class DctcpTransport(WindowedTransport):
    """DCTCP: window scales with the *fraction* of marked packets.

    Per window of acks, alpha <- (1 - g) alpha + g F where F is the
    fraction of ECN-echo acks, and on any marked window the sender cuts
    cwnd by alpha/2 — a proportional response instead of TCP's halving.
    """

    GAIN = 1.0 / 16.0

    def __init__(
        self,
        sim: Simulator,
        host_name: str,
        nic: Nic,
        rto_ns: int = ms(5),
        mtu_bytes: int = MTU,
    ) -> None:
        super().__init__(sim, host_name, nic, rto_ns=rto_ns, mtu_bytes=mtu_bytes)
        self._alpha: dict[FiveTuple, float] = {}
        self._window_acked: dict[FiveTuple, int] = {}
        self._window_marked: dict[FiveTuple, int] = {}

    def handle_packet(self, packet: Packet, reply) -> None:
        if packet.is_ack:
            self._note_ack_marks(packet)
            super().handle_packet(packet, reply)
            return
        # Receiver: echo the CE mark on the ack (ECN-Echo).
        ack = Packet(
            flow=packet.flow.reversed(),
            size_bytes=self.ACK_SIZE,
            seq=packet.seq,
            is_ack=True,
        )
        ack.ce = packet.ce
        reply(ack)

    def _note_ack_marks(self, ack: Packet) -> None:
        flow = ack.flow.reversed()
        state = self._flows.get(flow)
        if state is None:
            return
        self._window_acked[flow] = self._window_acked.get(flow, 0) + 1
        if ack.ce:
            self._window_marked[flow] = self._window_marked.get(flow, 0) + 1
        # One observation window ~ one cwnd of acks.
        if self._window_acked[flow] >= max(1, int(state.cwnd)):
            acked = self._window_acked.pop(flow)
            marked = self._window_marked.pop(flow, 0)
            fraction = marked / acked
            # alpha starts at 1 (RFC 8257): the first marked window halves,
            # then alpha converges to the running marked fraction.
            alpha = self._alpha.get(flow, 1.0)
            alpha = (1.0 - self.GAIN) * alpha + self.GAIN * fraction
            self._alpha[flow] = alpha
            if marked:
                state.cwnd = max(2.0, state.cwnd * (1.0 - alpha / 2.0))
                state.ssthresh = state.cwnd
