"""Servers, NICs, and a windowed transport.

The paper attributes burst structure primarily to application behaviour
(Sec 5.3), so the transport here is deliberately simple: an ack-clocked
sliding window with slow start, AIMD halving on loss, and NIC
segmentation-offload packet trains.  That is enough to reproduce the
transport-level phenomena the paper leans on — line-rate bursts from
offloaded sends, fan-in overload at downlinks, and reverse ACK streams of
minimum-size packets.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import FiveTuple, Packet
from repro.units import MAX_FRAME, MIN_PACKET, MTU, ms, serialization_time_ns

FlowCallback = Callable[["FlowState"], None]


@dataclass(slots=True)
class FlowState:
    """Book-keeping for one unidirectional data flow."""

    flow: FiveTuple
    total_packets: int
    packet_size: int
    cwnd: float = 10.0
    ssthresh: float = float("inf")
    next_seq: int = 0
    acked: int = 0
    inflight: int = 0
    last_progress_ns: int = 0
    on_complete: FlowCallback | None = None

    @property
    def done(self) -> bool:
        return self.acked >= self.total_packets


class Nic:
    """Host NIC: an egress queue paced at the access-link rate.

    Segmentation offload means the host hands the NIC whole send-window
    bursts; the NIC emits them back-to-back at line rate, which is the
    micro-scale burstiness TCP pacing would have smoothed (Sec 7,
    "Implications for pacing").
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        pacing_rate_bps: float | None = None,
    ) -> None:
        if pacing_rate_bps is not None and pacing_rate_bps <= 0:
            raise ConfigError("pacing rate must be positive")
        self.sim = sim
        self.link = link
        self.pacing_rate_bps = pacing_rate_bps
        self._queue: deque[Packet] = deque()
        self._busy = False
        self._pace_free_ns = 0

    def send(self, packet: Packet) -> None:
        self._queue.append(packet)
        if not self._busy:
            self._busy = True
            self._pump()

    def _pump(self) -> None:
        if not self._queue:
            self._busy = False
            return
        sim = self.sim
        pacing = self.pacing_rate_bps
        if pacing is not None and sim.clock.now < self._pace_free_ns:
            # Pacing (Sec 7): hold the next packet until its pace slot.
            sim.schedule_at(self._pace_free_ns, self._pump)
            return
        packet = self._queue.popleft()
        done_ns = self.link.transmit(packet)
        if pacing is not None:
            self._pace_free_ns = sim.clock.now + serialization_time_ns(
                packet.size_bytes, pacing
            )
            next_free = max(done_ns, self._pace_free_ns)
        else:
            next_free = done_ns
        sim.schedule_at(next_free, self._pump)


class WindowedTransport:
    """Ack-clocked window transport shared by all flows of one server."""

    INITIAL_CWND = 10.0
    ACK_SIZE = MIN_PACKET

    def __init__(
        self,
        sim: Simulator,
        host_name: str,
        nic: Nic,
        rto_ns: int = ms(5),
        mtu_bytes: int = MTU,
    ) -> None:
        if rto_ns <= 0:
            raise ConfigError("RTO must be positive")
        if not MIN_PACKET <= mtu_bytes <= MAX_FRAME:
            raise ConfigError(
                f"mtu_bytes {mtu_bytes} outside [{MIN_PACKET}, {MAX_FRAME}]: "
                f"frames above {MAX_FRAME} B cannot be binned by the switch "
                "packet-size histogram counters"
            )
        self.sim = sim
        self.host_name = host_name
        self.nic = nic
        self.rto_ns = rto_ns
        self.mtu_bytes = mtu_bytes
        self._flows: dict[FiveTuple, FlowState] = {}
        # Per-transport port counter: flow identity (and hence ECMP path
        # choice) must depend only on this simulation, not on how many
        # flows other simulations in the process created before it.
        self._next_port = itertools.count(10_000)

    # -- sending -------------------------------------------------------------

    def start_flow(
        self,
        dst_host: str,
        size_bytes: int,
        packet_size: int = MTU,
        on_complete: FlowCallback | None = None,
    ) -> FlowState:
        """Begin sending ``size_bytes`` to ``dst_host``.

        The flow is chopped into ``packet_size`` frames (the last frame is
        not shortened; switch counters only care about wire bytes, and
        keeping frames uniform keeps the size-histogram model explicit).
        """
        if size_bytes <= 0:
            raise ConfigError(f"flow size must be positive, got {size_bytes}")
        if not MIN_PACKET <= packet_size <= self.mtu_bytes:
            raise ConfigError(
                f"packet size {packet_size} outside frame limits "
                f"[{MIN_PACKET}, {self.mtu_bytes}]"
            )
        flow = FiveTuple(
            src_host=self.host_name,
            dst_host=dst_host,
            src_port=next(self._next_port),
            dst_port=80,
        )
        n_packets = max(1, math.ceil(size_bytes / packet_size))
        state = FlowState(
            flow=flow,
            total_packets=n_packets,
            packet_size=packet_size,
            cwnd=self.INITIAL_CWND,
            last_progress_ns=self.sim.now,
            on_complete=on_complete,
        )
        self._flows[flow] = state
        self._fill_window(state)
        self._arm_timer(state)
        return state

    def _fill_window(self, state: FlowState) -> None:
        window = int(state.cwnd)
        if state.inflight >= window or state.next_seq >= state.total_packets:
            return
        send = self.nic.send
        flow = state.flow
        size = state.packet_size
        while state.inflight < window and state.next_seq < state.total_packets:
            packet = Packet(flow=flow, size_bytes=size, seq=state.next_seq)
            state.next_seq += 1
            state.inflight += 1
            send(packet)

    def _arm_timer(self, state: FlowState) -> None:
        deadline = self.sim.now + self.rto_ns
        self.sim.schedule_at(deadline, self._check_timeout, state)

    def _check_timeout(self, state: FlowState) -> None:
        if state.done:
            return
        if self.sim.now - state.last_progress_ns >= self.rto_ns:
            # Coarse loss recovery: resume from the last cumulative ack
            # with a halved window (AIMD multiplicative decrease).
            state.ssthresh = max(2.0, state.cwnd / 2.0)
            state.cwnd = max(2.0, state.cwnd / 2.0)
            state.next_seq = state.acked
            state.inflight = 0
            state.last_progress_ns = self.sim.now
            self._fill_window(state)
        self._arm_timer(state)

    # -- receiving -----------------------------------------------------------

    def handle_packet(self, packet: Packet, reply: Callable[[Packet], None]) -> None:
        """Process an arriving packet addressed to this host.

        Data packets are acknowledged through ``reply``; ACK packets feed
        the congestion window of the owning flow.
        """
        if packet.is_ack:
            self._handle_ack(packet)
            return
        ack = Packet(
            flow=packet.flow.reversed(),
            size_bytes=self.ACK_SIZE,
            seq=packet.seq,
            is_ack=True,
        )
        reply(ack)

    def _handle_ack(self, ack: Packet) -> None:
        flow = ack.flow.reversed()
        state = self._flows.get(flow)
        if state is None or state.done:
            return
        now = self.sim.clock.now
        if ack.seq == state.acked:
            state.acked += 1
            state.inflight = max(0, state.inflight - 1)
            state.last_progress_ns = now
            if state.cwnd < state.ssthresh:
                state.cwnd += 1.0  # slow start
            else:
                state.cwnd += 1.0 / state.cwnd  # congestion avoidance
        elif ack.seq > state.acked:
            # Out-of-order cumulative progress after a loss: jump forward.
            jump = ack.seq + 1 - state.acked
            state.acked = ack.seq + 1
            state.inflight = max(0, state.inflight - jump)
            state.last_progress_ns = now
        if state.done:
            del self._flows[flow]
            if state.on_complete is not None:
                state.on_complete(state)
            return
        self._fill_window(state)


class Server:
    """A rack server: NIC + transport + application hook.

    ``transport_class`` selects the congestion-control behaviour — the
    default Reno-style :class:`WindowedTransport` or
    :class:`repro.netsim.ecn.DctcpTransport`.  ``pacing_rate_bps`` turns
    on NIC packet pacing (Sec 7's pacing implication).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        uplink_to_tor: Link,
        rto_ns: int = ms(5),
        transport_class: type["WindowedTransport"] | None = None,
        pacing_rate_bps: float | None = None,
        mtu_bytes: int = MTU,
    ) -> None:
        self.sim = sim
        self.name = name
        self.nic = Nic(sim, uplink_to_tor, pacing_rate_bps=pacing_rate_bps)
        transport_class = transport_class or WindowedTransport
        self.transport = transport_class(
            sim, name, self.nic, rto_ns=rto_ns, mtu_bytes=mtu_bytes
        )
        self.rx_bytes = 0
        self.on_data_packet: Callable[[Packet], None] | None = None
        self._reply = self.nic.send

    def send_flow(
        self,
        dst_host: str,
        size_bytes: int,
        packet_size: int = MTU,
        on_complete: FlowCallback | None = None,
    ) -> FlowState:
        return self.transport.start_flow(
            dst_host, size_bytes, packet_size=packet_size, on_complete=on_complete
        )

    def receive(self, packet: Packet) -> None:
        """Entry point for packets delivered by the ToR downlink."""
        if packet.flow.dst_host != self.name:
            raise SimulationError(
                f"server {self.name} received packet for {packet.flow.dst_host}"
            )
        self.rx_bytes += packet.size_bytes
        self.transport.handle_packet(packet, self._reply)
        if not packet.is_ack and self.on_data_packet is not None:
            self.on_data_packet(packet)
