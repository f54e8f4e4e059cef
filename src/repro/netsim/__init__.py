"""Packet-level data-center network simulator.

This subpackage is the substrate for the microburst study: it models the
Top-of-Rack switch whose ASIC counters the high-resolution sampler
(:mod:`repro.core`) polls.  The simulator is deliberately scoped to what
the paper measures — a single ToR with 10 Gbps server downlinks, four
40 Gbps ECMP uplinks into a fabric cloud, and a shared dynamically-carved
packet buffer — and exposes exactly the counters the paper's framework
collects (byte counts, packet-size histograms, peak buffer occupancy).
"""

from repro.netsim.clock import SimClock
from repro.netsim.engine import Simulator
from repro.netsim.events import Event, EventQueue
from repro.netsim.packet import FiveTuple, Packet
from repro.netsim.buffer import BufferPolicy, SharedBuffer
from repro.netsim.link import Link
from repro.netsim.port import Direction, Port
from repro.netsim.ecmp import EcmpHasher
from repro.netsim.switch import TorSwitch, TorSwitchConfig
from repro.netsim.fabric import FabricCloud
from repro.netsim.host import Nic, Server, WindowedTransport
from repro.netsim.ecn import DctcpTransport, EcnConfig, EcnMarker
from repro.netsim.clos import ClosConfig, ClosFabric
from repro.netsim.topology import Rack, RackConfig, build_rack
from repro.netsim.tracing import SwitchCounterSurface

__all__ = [
    "SimClock",
    "Simulator",
    "Event",
    "EventQueue",
    "FiveTuple",
    "Packet",
    "BufferPolicy",
    "SharedBuffer",
    "Link",
    "Direction",
    "Port",
    "EcmpHasher",
    "TorSwitch",
    "TorSwitchConfig",
    "FabricCloud",
    "Nic",
    "Server",
    "WindowedTransport",
    "DctcpTransport",
    "EcnConfig",
    "EcnMarker",
    "ClosConfig",
    "ClosFabric",
    "Rack",
    "RackConfig",
    "build_rack",
    "SwitchCounterSurface",
]
