"""Fabric-cloud internals: paced queues, routing, error paths."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.netsim import FabricCloud, RackConfig, Simulator
from repro.netsim.fabric import _PacedQueue
from repro.netsim.packet import FiveTuple, Packet
from repro.units import gbps, ms


def packet(src="a", dst="b", size=1500, seq=0):
    return Packet(
        flow=FiveTuple(src, dst, 1, 2), size_bytes=size, seq=seq
    )


class TestPacedQueue:
    def make(self, capacity=10_000, rate=gbps(10)):
        sim = Simulator()
        delivered = []
        queue = _PacedQueue(sim, rate, capacity, deliver=delivered.append)
        return sim, queue, delivered

    def test_paces_at_rate(self):
        sim, queue, delivered = self.make()
        for seq in range(3):
            assert queue.offer(packet(seq=seq))
        sim.run_until(ms(1))
        assert len(delivered) == 3
        assert [p.seq for p in delivered] == [0, 1, 2]

    def test_tail_drop_at_capacity(self):
        # the first packet starts transmitting immediately, so the queue
        # holds packets 2 and 3; the 4th exceeds the 3000 B backlog cap
        sim, queue, delivered = self.make(capacity=3000)
        accepted = [queue.offer(packet()) for _ in range(4)]
        assert accepted == [True, True, True, False]
        sim.run_until(ms(1))
        assert len(delivered) == 3

    def test_backlog_drains_and_accepts_again(self):
        sim, queue, delivered = self.make(capacity=3000)
        queue.offer(packet())
        queue.offer(packet())
        sim.run_until(ms(1))
        assert queue.offer(packet(seq=9))
        sim.run_until(ms(2))
        assert delivered[-1].seq == 9

    def test_tx_bytes_accounting(self):
        sim, queue, delivered = self.make()
        queue.offer(packet(size=1000))
        sim.run_until(ms(1))
        assert sum(p.size_bytes for p in delivered) == 1000


class TestFabricCloudWiring:
    def test_double_tor_connect_rejected(self):
        sim = Simulator()
        fabric = FabricCloud(sim, n_uplinks=2, uplink_rate_bps=gbps(10))
        fabric.connect_tor(["h0"], [lambda p: None] * 2)
        with pytest.raises(ConfigError):
            fabric.connect_tor(["h1"], [lambda p: None] * 2)

    def test_negative_latency_rejected(self):
        # the fabric's latency lives in the rack's link delays, so the one
        # setting for it, RackConfig.fabric_latency_ns, is what checks it
        with pytest.raises(ConfigError):
            RackConfig(fabric_latency_ns=-1)

    def test_unknown_destination_from_tor(self):
        sim = Simulator()
        fabric = FabricCloud(sim, n_uplinks=2, uplink_rate_bps=gbps(10))
        with pytest.raises(SimulationError):
            fabric.receive_from_tor(packet(dst="ghost"))

    def test_unknown_destination_from_remote(self):
        fabric = FabricCloud(Simulator(), n_uplinks=2, uplink_rate_bps=gbps(10))
        fabric.connect_tor(["h0"], [lambda p: None] * 2)
        with pytest.raises(SimulationError):
            fabric.receive_from_remote(packet(src="r0", dst="ghost"))

    def test_ingress_spread_uses_independent_hash(self, sim, small_rack):
        """Fabric-side ECMP differs from the ToR's: the same flow may use
        different uplinks in the two directions."""
        rack = small_rack
        for index, remote in enumerate(rack.remote_hosts):
            remote.send_flow(rack.servers[index % 4].name, 50_000)
        sim.run_for(ms(15))
        rx = [p.counters.rx_bytes for p in rack.tor.uplink_ports]
        assert sum(rx) >= 8 * 50_000
        assert all(b > 0 for b in rx)  # both uplinks used for ingress
