"""NIC pacing tests."""

import pytest

from repro.errors import ConfigError
from repro.netsim import Link, Nic, Simulator
from repro.netsim.packet import FiveTuple, Packet
from repro.units import gbps, ms


def make_nic(pacing=None):
    sim = Simulator()
    link = Link(sim, "nic", rate_bps=gbps(10), propagation_ns=0)
    arrivals = []
    link.connect(lambda p: arrivals.append(sim.now))
    return sim, Nic(sim, link, pacing_rate_bps=pacing), arrivals


def burst(nic, n=4):
    flow = FiveTuple("a", "b", 1, 2)
    for seq in range(n):
        nic.send(Packet(flow=flow, size_bytes=1500, seq=seq))


class TestPacing:
    def test_unpaced_back_to_back(self):
        sim, nic, arrivals = make_nic()
        burst(nic)
        sim.run_until(ms(1))
        assert arrivals == [1200, 2400, 3600, 4800]

    def test_paced_spacing(self):
        # pacing at 2 Gbps: one 1500 B packet per 6 us
        sim, nic, arrivals = make_nic(pacing=gbps(2))
        burst(nic)
        sim.run_until(ms(1))
        assert arrivals == [1200, 7200, 13200, 19200]

    def test_pacing_preserves_all_packets(self):
        sim, nic, arrivals = make_nic(pacing=gbps(1))
        burst(nic, n=10)
        sim.run_until(ms(1))
        assert len(arrivals) == 10

    def test_pacing_faster_than_line_rate_is_harmless(self):
        sim, nic, arrivals = make_nic(pacing=gbps(100))
        burst(nic)
        sim.run_until(ms(1))
        # serialization dominates: behaves like unpaced
        assert arrivals == [1200, 2400, 3600, 4800]

    def test_idle_gap_resets_pacing_debt(self):
        sim, nic, arrivals = make_nic(pacing=gbps(2))
        flow = FiveTuple("a", "b", 1, 2)
        nic.send(Packet(flow=flow, size_bytes=1500))
        sim.run_until(ms(1))
        nic.send(Packet(flow=flow, size_bytes=1500, seq=1))
        sim.run_until(ms(2))
        # the second packet, sent after a long idle period, is not delayed
        assert arrivals[1] == ms(1) + 1200

    def test_invalid_pacing_rate(self):
        sim = Simulator()
        link = Link(sim, "nic", rate_bps=gbps(10))
        with pytest.raises(ConfigError):
            Nic(sim, link, pacing_rate_bps=0)
