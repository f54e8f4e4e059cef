"""Packet and link tests."""

import pytest

from repro.errors import ConfigError
from repro.netsim import Link, Simulator
from repro.netsim.packet import FiveTuple, Packet
from repro.units import MAX_FRAME, MTU, gbps


@pytest.fixture
def flow():
    return FiveTuple(src_host="a", dst_host="b", src_port=1111, dst_port=80)


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self, flow):
        rev = flow.reversed()
        assert rev.src_host == "b" and rev.dst_host == "a"
        assert rev.src_port == 80 and rev.dst_port == 1111
        assert rev.reversed() == flow

    def test_hashable_identity(self, flow):
        assert flow == FiveTuple("a", "b", 1111, 80)
        assert hash(flow) == hash(FiveTuple("a", "b", 1111, 80))


class TestPacket:
    def test_size_limits_enforced(self, flow):
        # The packet-level bound is the largest histogram bin (MAX_FRAME),
        # not the MTU: MTU policy is enforced by RackConfig / the
        # transport at construction time.
        with pytest.raises(ValueError):
            Packet(flow=flow, size_bytes=MAX_FRAME + 1)
        with pytest.raises(ValueError):
            Packet(flow=flow, size_bytes=32)
        assert Packet(flow=flow, size_bytes=MTU + 1).size_bytes == MTU + 1

    def test_reversed_memoised(self, flow):
        rev = flow.reversed()
        # Repeated reversals return the cached object (equality-keyed, so
        # an equal flow from elsewhere may share the same cache entry).
        assert flow.reversed() is rev
        assert rev.reversed() == flow
        assert rev.reversed() is rev.reversed()


class TestLink:
    def test_serialization_plus_propagation(self, flow):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=gbps(10), propagation_ns=500)
        arrivals = []
        link.connect(lambda packet: arrivals.append(sim.now))
        packet = Packet(flow=flow, size_bytes=1500)
        done = link.transmit(packet)
        assert done == 1200  # 1500 B at 10 Gbps
        sim.run_until(10_000)
        assert arrivals == [1700]  # + 500 ns propagation

    def test_transmit_before_connect_fails(self, flow):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=gbps(10))
        with pytest.raises(ConfigError):
            link.transmit(Packet(flow=flow, size_bytes=100))

    def test_double_connect_fails(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=gbps(10))
        link.connect(lambda p: None)
        with pytest.raises(ConfigError):
            link.connect(lambda p: None)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            Link(Simulator(), "l", rate_bps=0)

    def test_invalid_propagation(self):
        with pytest.raises(ConfigError):
            Link(Simulator(), "l", rate_bps=1e9, propagation_ns=-1)
