"""Top-of-Rack switch.

Wires together ports, the shared buffer, and ECMP uplink selection, and
exposes the counter surface that :mod:`repro.core` polls.  Matches the
architecture in Sec 4.2: servers on 10 Gbps downlinks, four uplinks into
the fabric, 1:4 oversubscription by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError, SimulationError
from repro.netsim.buffer import BufferPolicy, SharedBuffer
from repro.netsim.ecmp import EcmpHasher
from repro.netsim.ecn import EcnConfig, EcnMarker
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.port import Port
from repro.units import gbps


@dataclass(frozen=True, slots=True)
class TorSwitchConfig:
    """Shape of the ToR switch.

    Defaults give a 16-server rack with 4 x 10 G uplinks, i.e. the 1:4
    oversubscription ratio the paper reports (Sec 6.3), scaled down from
    production port counts to keep packet-level simulation tractable.
    """

    n_downlinks: int = 16
    downlink_rate_bps: float = gbps(10)
    n_uplinks: int = 4
    uplink_rate_bps: float = gbps(10)
    buffer: BufferPolicy = field(default_factory=BufferPolicy)
    ecmp_mode: str = "flow"
    link_propagation_ns: int = 500
    #: when set, ports CE-mark packets past this queue depth (DCTCP's K)
    ecn: "EcnConfig | None" = None

    def __post_init__(self) -> None:
        if self.n_downlinks <= 0 or self.n_uplinks <= 0:
            raise ConfigError("switch needs at least one downlink and uplink")

    @property
    def oversubscription(self) -> float:
        """Downlink to uplink capacity ratio."""
        return (self.n_downlinks * self.downlink_rate_bps) / (
            self.n_uplinks * self.uplink_rate_bps
        )


class TorSwitch:
    """The measured switch: shared-buffer ToR with ECMP uplinks."""

    def __init__(self, sim: Simulator, config: TorSwitchConfig | None = None) -> None:
        self.sim = sim
        self.config = config or TorSwitchConfig()
        self.shared_buffer = SharedBuffer(self.config.buffer)
        self.ecmp = EcmpHasher(self.config.n_uplinks, mode=self.config.ecmp_mode)
        self._host_table: dict[str, int] = {}
        self.downlink_ports: list[Port] = []
        self.uplink_ports: list[Port] = []

    # -- wiring ---------------------------------------------------------------

    def add_downlink(self, host_name: str, deliver: Callable[[Packet], None]) -> Port:
        """Attach a server; returns the new downlink port."""
        index = len(self.downlink_ports)
        if index >= self.config.n_downlinks:
            raise ConfigError("all downlink ports already in use")
        if host_name in self._host_table:
            raise ConfigError(f"host {host_name!r} already attached")
        link = Link(
            self.sim,
            name=f"tor-down{index}",
            rate_bps=self.config.downlink_rate_bps,
            propagation_ns=self.config.link_propagation_ns,
        )
        link.connect(deliver)
        port = Port(
            self.sim,
            name=f"down{index}",
            egress_link=link,
            shared_buffer=self.shared_buffer,
            ecn=self._make_marker(),
        )
        self.downlink_ports.append(port)
        self._host_table[host_name] = index
        return port

    def add_uplink(self, deliver: Callable[[Packet], None], propagation_ns: int) -> Port:
        """Attach one uplink toward the fabric, ``propagation_ns`` away."""
        index = len(self.uplink_ports)
        if index >= self.config.n_uplinks:
            raise ConfigError("all uplink ports already in use")
        link = Link(
            self.sim,
            name=f"tor-up{index}",
            rate_bps=self.config.uplink_rate_bps,
            propagation_ns=propagation_ns,
        )
        link.connect(deliver)
        port = Port(
            self.sim,
            name=f"up{index}",
            egress_link=link,
            shared_buffer=self.shared_buffer,
            ecn=self._make_marker(),
        )
        self.uplink_ports.append(port)
        return port

    def _make_marker(self) -> EcnMarker | None:
        if self.config.ecn is None:
            return None
        return EcnMarker(self.config.ecn)

    @property
    def all_ports(self) -> list[Port]:
        return self.downlink_ports + self.uplink_ports

    @property
    def rack_hosts(self) -> list[str]:
        return sorted(self._host_table, key=self._host_table.get)

    # -- data path --------------------------------------------------------------

    def downlink_ingress(self, host_name: str) -> Callable[[Packet], None]:
        """Ingress from ``host_name``'s NIC, bound to its downlink port."""
        index = self._host_table.get(host_name)
        if index is None:
            raise ConfigError(f"no downlink attached for host {host_name!r}")
        note_ingress = self.downlink_ports[index].note_ingress
        host_table, downlink_ports = self._host_table, self.downlink_ports
        uplink_ports, choose_uplink = self.uplink_ports, self.ecmp.choose

        def ingress(packet: Packet) -> None:
            note_ingress(packet)
            dst_index = host_table.get(packet.flow.dst_host)
            if dst_index is None:
                uplink_ports[choose_uplink(packet.flow)].enqueue(packet)
            else:
                downlink_ports[dst_index].enqueue(packet)

        return ingress

    def uplink_ingress(self, uplink_index: int) -> Callable[[Packet], None]:
        """Ingress from the fabric, bound to one uplink port."""
        note_ingress = self.uplink_ports[uplink_index].note_ingress
        host_table, downlink_ports = self._host_table, self.downlink_ports

        def ingress(packet: Packet) -> None:
            note_ingress(packet)
            dst_index = host_table.get(packet.flow.dst_host)
            if dst_index is None:
                raise SimulationError(
                    f"fabric delivered packet for non-rack host {packet.flow.dst_host!r}"
                )
            downlink_ports[dst_index].enqueue(packet)

        return ingress

    # -- counters ----------------------------------------------------------------

    def total_drops(self) -> int:
        return sum(port.counters.tx_drops for port in self.all_ports)
