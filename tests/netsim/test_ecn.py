"""ECN marking and DCTCP transport tests."""

import pytest

from repro.errors import ConfigError
from repro.netsim import (
    BufferPolicy,
    DctcpTransport,
    EcnConfig,
    EcnMarker,
    RackConfig,
    Simulator,
    TorSwitchConfig,
    build_rack,
)
from repro.netsim.packet import FiveTuple, Packet
from repro.units import ms


def packet(ce=False, seq=0):
    return Packet(
        flow=FiveTuple("a", "b", 1, 2), size_bytes=1500, seq=seq, ce=ce
    )


class TestMarker:
    def test_marks_above_threshold(self):
        marker = EcnMarker(EcnConfig(mark_threshold_bytes=10_000))
        p1, p2 = packet(), packet()
        marker.observe(5_000, p1)
        marker.observe(15_000, p2)
        assert not p1.ce
        assert p2.ce
        assert marker.packets_marked == 1
        assert marker.packets_seen == 2

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            EcnConfig(mark_threshold_bytes=0)


def dctcp_rack(seed=1, n_remote=16):
    sim = Simulator(seed=seed)
    rack = build_rack(
        sim,
        RackConfig(
            name="t",
            switch=TorSwitchConfig(
                n_downlinks=4,
                n_uplinks=2,
                buffer=BufferPolicy(capacity_bytes=200_000, alpha=1.0),
                ecn=EcnConfig(mark_threshold_bytes=30_000),
            ),
            n_remote_hosts=n_remote,
            transport="dctcp",
            rto_ns=ms(2),
        ),
    )
    return sim, rack


class TestDctcp:
    def test_transport_class_selected(self):
        _, rack = dctcp_rack()
        assert isinstance(rack.servers[0].transport, DctcpTransport)
        assert isinstance(rack.remote_hosts[0].transport, DctcpTransport)

    def test_receiver_echoes_ce(self):
        sim, rack = dctcp_rack()
        server = rack.servers[0]
        echoed = []
        marked = packet(ce=True)
        marked = Packet(
            flow=FiveTuple("x", server.name, 5, 6),
            size_bytes=1500,
            ce=True,
        )
        server.transport.handle_packet(marked, reply=echoed.append)
        assert len(echoed) == 1
        assert echoed[0].is_ack
        assert echoed[0].ce

    def test_unmarked_data_gives_unmarked_ack(self):
        sim, rack = dctcp_rack()
        server = rack.servers[0]
        echoed = []
        clean = Packet(
            flow=FiveTuple("x", server.name, 5, 6), size_bytes=1500
        )
        server.transport.handle_packet(clean, reply=echoed.append)
        assert not echoed[0].ce

    def test_alpha_converges_under_marking(self):
        sim, rack = dctcp_rack()
        for remote in rack.remote_hosts:
            remote.send_flow(rack.servers[0].name, 1_500_000)
        sim.run_for(ms(80))
        transport = rack.remote_hosts[0].transport
        alphas = list(transport._alpha.values())
        assert alphas, "no alpha state: marking feedback never reached sender"
        assert 0.0 < alphas[0] <= 1.0

    def test_dctcp_keeps_steady_state_queue_short(self):
        """The ext-cc claim: after warm-up, DCTCP holds the queue near K
        while reno fills the shared buffer to its DT cap."""

        def steady_peak(transport):
            sim = Simulator(seed=3)
            rack = build_rack(
                sim,
                RackConfig(
                    name="t",
                    switch=TorSwitchConfig(
                        n_downlinks=4,
                        n_uplinks=2,
                        buffer=BufferPolicy(capacity_bytes=200_000, alpha=1.0),
                        ecn=EcnConfig(mark_threshold_bytes=30_000),
                    ),
                    n_remote_hosts=16,
                    transport=transport,
                    rto_ns=ms(2),
                ),
            )
            for remote in rack.remote_hosts:
                remote.send_flow(rack.servers[0].name, 2_000_000)
            sim.run_for(ms(20))
            rack.tor.shared_buffer.peak_occupancy_read_and_reset()
            sim.run_for(ms(60))
            return rack.tor.shared_buffer.peak_occupancy_read_and_reset()

        assert steady_peak("dctcp") < steady_peak("reno") / 2
