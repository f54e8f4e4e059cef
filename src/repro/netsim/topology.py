"""Rack topology builder.

Assembles one measured rack: servers, ToR switch, and the fabric cloud
with its pool of remote hosts, all cross-wired.  This is the unit of the
paper's measurement campaigns — each campaign samples one ToR at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.netsim.engine import Simulator
from repro.netsim.fabric import FabricCloud
from repro.netsim.host import Server
from repro.netsim.link import Link
from repro.netsim.switch import TorSwitch, TorSwitchConfig
from repro.units import MAX_FRAME, MIN_PACKET, MTU, gbps, ms, us


@dataclass(frozen=True, slots=True)
class RackConfig:
    """Everything needed to build one rack and its surroundings."""

    name: str = "rack0"
    switch: TorSwitchConfig = field(default_factory=TorSwitchConfig)
    n_remote_hosts: int = 32
    remote_rate_bps: float = gbps(10)
    fabric_latency_ns: int = us(25)
    rto_ns: int = ms(5)
    #: "reno" (default loss-based window) or "dctcp" (needs switch.ecn set)
    transport: str = "reno"
    #: NIC pacing rate for all hosts; None = unpaced line-rate trains
    pacing_rate_bps: float | None = None
    #: Largest data frame the rack's hosts may put on the wire.  Validated
    #: here, at construction time, against the largest ASIC histogram bin
    #: so a misconfigured (e.g. jumbo) MTU fails fast with a clear error
    #: instead of crashing mid-simulation deep in the counter path.
    mtu_bytes: int = MTU

    def __post_init__(self) -> None:
        if self.n_remote_hosts < 0:
            raise ConfigError("remote host count cannot be negative")
        if self.fabric_latency_ns < 0:
            raise ConfigError("fabric latency cannot be negative")
        if self.transport not in ("reno", "dctcp"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        if not MIN_PACKET <= self.mtu_bytes <= MAX_FRAME:
            raise ConfigError(
                f"rack {self.name!r} mtu_bytes={self.mtu_bytes} outside "
                f"[{MIN_PACKET}, {MAX_FRAME}]: the switch packet-size "
                f"histogram tops out at the {MAX_FRAME} B RMON bin, so "
                "larger frames cannot be counted — lower the workload MTU"
            )

    def transport_class(self):
        if self.transport == "dctcp":
            from repro.netsim.ecn import DctcpTransport

            return DctcpTransport
        from repro.netsim.host import WindowedTransport

        return WindowedTransport


@dataclass(slots=True)
class Rack:
    """A built rack: handles to every component."""

    config: RackConfig
    sim: Simulator
    tor: TorSwitch
    servers: list[Server]
    remote_hosts: list[Server]

    def host(self, name: str) -> Server:
        for server in self.servers + self.remote_hosts:
            if server.name == name:
                return server
        raise KeyError(name)


def build_rack(sim: Simulator, config: RackConfig | None = None) -> Rack:
    """Build and wire a complete rack.

    Server ``i`` is named ``{rack}-s{i}``; remote hosts are
    ``{rack}-r{i}``.  All links are full duplex (a pair of simplex
    :class:`~repro.netsim.link.Link` objects).

    The links into the fabric (ToR uplinks, remote NICs) carry its
    latency in their delay, so the fabric routes a packet on arrival.
    Each server NIC link and fabric->ToR queue delivers into a ToR
    ingress callable bound here, once per port.
    """
    config = config or RackConfig()
    tor = TorSwitch(sim, config.switch)
    fabric = FabricCloud(
        sim,
        n_uplinks=config.switch.n_uplinks,
        uplink_rate_bps=config.switch.uplink_rate_bps,
    )
    fabric_delay_ns = config.switch.link_propagation_ns + config.fabric_latency_ns

    servers: list[Server] = []
    for i in range(config.switch.n_downlinks):
        name = f"{config.name}-s{i}"
        nic_link = Link(
            sim,
            name=f"{name}-nic",
            rate_bps=config.switch.downlink_rate_bps,
            propagation_ns=config.switch.link_propagation_ns,
        )
        server = Server(
            sim,
            name,
            nic_link,
            rto_ns=config.rto_ns,
            transport_class=config.transport_class(),
            pacing_rate_bps=config.pacing_rate_bps,
            mtu_bytes=config.mtu_bytes,
        )
        tor.add_downlink(name, server.receive)
        nic_link.connect(tor.downlink_ingress(name))
        servers.append(server)

    for _ in range(config.switch.n_uplinks):
        tor.add_uplink(fabric.receive_from_tor, fabric_delay_ns)
    fabric.connect_tor(
        tor.rack_hosts,
        [tor.uplink_ingress(i) for i in range(config.switch.n_uplinks)],
    )

    remote_hosts: list[Server] = []
    for i in range(config.n_remote_hosts):
        name = f"{config.name}-r{i}"
        remote_link = Link(
            sim,
            name=f"{name}-nic",
            rate_bps=config.remote_rate_bps,
            propagation_ns=fabric_delay_ns,
        )
        remote = Server(
            sim,
            name,
            remote_link,
            rto_ns=config.rto_ns,
            transport_class=config.transport_class(),
            pacing_rate_bps=config.pacing_rate_bps,
            mtu_bytes=config.mtu_bytes,
        )
        remote_link.connect(fabric.receive_from_remote)
        fabric.attach_remote(remote)
        remote_hosts.append(remote)

    return Rack(
        config=config,
        sim=sim,
        tor=tor,
        servers=servers,
        remote_hosts=remote_hosts,
    )
