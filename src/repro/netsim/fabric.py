"""Aggregation/spine fabric cloud.

The paper studies ToR switches only (Sec 4.2); the fabric and spine tiers
matter to the ToR only as (a) a sink for uplink egress traffic, (b) a
source of uplink ingress traffic whose spreading across the four uplinks
mirrors the spine's own ECMP, and (c) a latency in the request/response
path.  ``FabricCloud`` models exactly that: remote hosts attach to it
directly, and per-uplink paced queues deliver fabric->ToR traffic at
uplink line rate.  The latency (c) lives in the delay of the links into
the fabric (``build_rack``), so crossing it costs no event of its own.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError, SimulationError
from repro.netsim.ecmp import EcmpHasher
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.units import serialization_time_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.host import Server


class _PacedQueue:
    """FIFO paced at a fixed rate with tail drop (fabric egress to ToR)."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        capacity_bytes: int,
        deliver: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.rate_bps = rate_bps
        self.capacity_bytes = capacity_bytes
        self.deliver = deliver
        self._queue: deque[Packet] = deque()
        self._backlog = 0
        self._busy = False
        # Serialization times memoised per distinct packet size, exactly
        # as in Link (same rounding, so timing is bit-identical).
        self._ser_cache: dict[int, int] = {}

    def offer(self, packet: Packet) -> bool:
        if self._backlog + packet.size_bytes > self.capacity_bytes:
            return False
        self._queue.append(packet)
        self._backlog += packet.size_bytes
        if not self._busy:
            self._pump()
        return True

    def _pump(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._backlog -= size
        cache = self._ser_cache
        ser = cache.get(size)
        if ser is None:
            ser = cache[size] = serialization_time_ns(size, self.rate_bps)
        sim = self.sim
        sim.schedule_at(sim.clock.now + ser, self._emit, packet)

    def _emit(self, packet: Packet) -> None:
        self.deliver(packet)
        self._pump()


class FabricCloud:
    """Everything beyond the rack's four uplinks."""

    def __init__(
        self,
        sim: Simulator,
        n_uplinks: int,
        uplink_rate_bps: float,
        uplink_queue_bytes: int = 2 * 1024 * 1024,
        ecmp_salt: int = 1,
    ) -> None:
        self.sim = sim
        self._uplink_rate_bps = uplink_rate_bps
        self._uplink_queue_bytes = uplink_queue_bytes
        self._remote_hosts: dict[str, "Server"] = {}
        self._rack_hosts: set[str] = set()
        # The spine's hash choice is independent of the ToR's, hence a
        # different salt: the same flow may use different uplinks in the
        # two directions, as in real Clos fabrics.
        self._ecmp = EcmpHasher(n_uplinks, mode="flow", salt=ecmp_salt)
        self._to_tor: list[_PacedQueue] = []

    # -- wiring ---------------------------------------------------------------

    def connect_tor(
        self, rack_hosts: list[str], ingress: list[Callable[[Packet], None]]
    ) -> None:
        """Register the rack's ToR: its host list and per-uplink ingress."""
        if self._to_tor:
            raise ConfigError("fabric already connected to a ToR")
        self._rack_hosts = set(rack_hosts)
        self._to_tor = [
            _PacedQueue(self.sim, self._uplink_rate_bps, self._uplink_queue_bytes, deliver)
            for deliver in ingress
        ]

    def attach_remote(self, server: "Server") -> None:
        if server.name in self._remote_hosts or server.name in self._rack_hosts:
            raise ConfigError(f"duplicate host name {server.name!r}")
        self._remote_hosts[server.name] = server

    # -- data path --------------------------------------------------------------

    def receive_from_tor(self, packet: Packet) -> None:
        """A packet leaving the rack via an uplink."""
        host = self._remote_hosts.get(packet.flow.dst_host)
        if host is None:
            raise SimulationError(
                f"fabric has no remote host {packet.flow.dst_host!r}"
            )
        host.receive(packet)

    def receive_from_remote(self, packet: Packet) -> None:
        """A packet sent by a remote host."""
        dst = packet.flow.dst_host
        if dst in self._rack_hosts:
            self._to_tor[self._ecmp.choose(packet.flow)].offer(packet)
        elif dst in self._remote_hosts:
            self._remote_hosts[dst].receive(packet)
        else:
            raise SimulationError(f"fabric has no route to {dst!r}")
