"""ToR switch, fabric, and topology tests."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.netsim import (
    RackConfig,
    Simulator,
    TorSwitchConfig,
    TorSwitch,
    build_rack,
)
from repro.netsim.packet import FiveTuple, Packet
from repro.units import MIN_PACKET, gbps, ms, serialization_time_ns


class TestTorSwitchConfig:
    def test_default_oversubscription_is_four(self):
        assert TorSwitchConfig().oversubscription == pytest.approx(4.0)

    def test_invalid_port_counts(self):
        with pytest.raises(ConfigError):
            TorSwitchConfig(n_downlinks=0)


class TestForwarding:
    def test_local_traffic_stays_in_rack(self, sim, small_rack):
        rack = small_rack
        src, dst = rack.servers[0], rack.servers[1]
        src.send_flow(dst.name, 30_000)
        sim.run_for(ms(10))
        assert dst.rx_bytes >= 30_000
        # nothing for this flow should leave via uplinks
        uplink_tx = sum(p.counters.tx_bytes for p in rack.tor.uplink_ports)
        assert uplink_tx <= 200  # at most stray ACK-sized leakage (none expected)

    def test_remote_traffic_uses_ecmp_uplink(self, sim, small_rack):
        rack = small_rack
        rack.servers[0].send_flow(rack.remote_hosts[0].name, 30_000)
        sim.run_for(ms(10))
        uplink_tx = [p.counters.tx_bytes for p in rack.tor.uplink_ports]
        assert sum(uplink_tx) >= 30_000
        # flow-level ECMP: a single flow rides one uplink
        assert sum(1 for b in uplink_tx if b > 1000) == 1

    def test_fabric_delivers_to_rack(self, sim, small_rack):
        rack = small_rack
        rack.remote_hosts[0].send_flow(rack.servers[2].name, 30_000)
        sim.run_for(ms(10))
        assert rack.servers[2].rx_bytes >= 30_000
        uplink_rx = sum(p.counters.rx_bytes for p in rack.tor.uplink_ports)
        assert uplink_rx >= 30_000

    def test_remote_to_remote_bypasses_tor(self, sim, small_rack):
        rack = small_rack
        rack.remote_hosts[0].send_flow(rack.remote_hosts[1].name, 30_000)
        sim.run_for(ms(10))
        assert rack.remote_hosts[1].rx_bytes >= 30_000
        assert all(p.counters.rx_bytes == 0 for p in rack.tor.uplink_ports)

    def test_unknown_source_rejected(self, sim, small_rack):
        # a NIC link is bound to its host's downlink at wiring time, so an
        # unknown host is refused there, before any packet flows
        with pytest.raises(ConfigError, match="ghost"):
            small_rack.tor.downlink_ingress("ghost")

    def test_fabric_packet_for_unknown_host_rejected(self, sim, small_rack):
        flow = FiveTuple("t-r0", "nowhere", 1, 2)
        packet = Packet(flow=flow, size_bytes=100)
        with pytest.raises(SimulationError):
            small_rack.tor.uplink_ingress(0)(packet)


class TestFoldedFabricPath:
    """One packet remote -> rack server and its ACK back, timed exactly.

    The fabric's latency rides in the delay of the links into it, so
    each arrival is a closed-form sum of serialization, propagation and
    ``fabric_latency_ns``, and crossing the fabric costs no event.
    """

    def test_data_and_ack_arrive_at_closed_form_times(self):
        sim = Simulator()
        config = RackConfig(
            name="t",
            switch=TorSwitchConfig(n_downlinks=1, n_uplinks=1),
            n_remote_hosts=1,
        )
        rack = build_rack(sim, config)
        server, remote = rack.servers[0], rack.remote_hosts[0]
        data_at, ack_at = [], []
        server.on_data_packet = lambda packet: data_at.append(sim.now)
        remote.send_flow(
            server.name, 1500, packet_size=1500,
            on_complete=lambda state: ack_at.append(sim.now),
        )
        sim.run_until(ms(1))

        prop = config.switch.link_propagation_ns
        fabric = config.fabric_latency_ns
        data_ser = serialization_time_ns(1500, gbps(10))
        ack_ser = serialization_time_ns(MIN_PACKET, gbps(10))
        # remote NIC -> fabric queue -> ToR downlink -> server
        data_arrival = data_ser + prop + fabric + data_ser + data_ser + prop
        assert data_at == [data_arrival]
        # server NIC -> ToR uplink -> remote host
        assert ack_at == [data_arrival + ack_ser + prop + ack_ser + prop + fabric]
        # remote: delivery + NIC pump; fabric queue: emit; downlink:
        # delivery + finish; server: delivery + NIC pump; uplink: delivery
        # + finish.  The RTO timer at 5 ms is past the horizon.
        assert sim.events_processed == 9


class TestWiring:
    def test_port_counts_limited_by_config(self):
        sim = Simulator()
        switch = TorSwitch(sim, TorSwitchConfig(n_downlinks=1, n_uplinks=1))
        switch.add_downlink("h0", lambda p: None)
        with pytest.raises(ConfigError):
            switch.add_downlink("h1", lambda p: None)

    def test_duplicate_host_rejected(self):
        sim = Simulator()
        switch = TorSwitch(sim, TorSwitchConfig(n_downlinks=2, n_uplinks=1))
        switch.add_downlink("h0", lambda p: None)
        with pytest.raises(ConfigError):
            switch.add_downlink("h0", lambda p: None)

    def test_rack_host_names(self, small_rack):
        assert [server.name for server in small_rack.servers] == ["t-s0", "t-s1", "t-s2", "t-s3"]
        assert len(small_rack.remote_hosts) == 8
        assert small_rack.host("t-s1").name == "t-s1"
        with pytest.raises(KeyError):
            small_rack.host("nope")

    def test_rack_builder_defaults(self):
        sim = Simulator()
        rack = build_rack(sim)
        assert len(rack.servers) == 16
        assert len(rack.tor.uplink_ports) == 4
        assert rack.tor.config.oversubscription == pytest.approx(4.0)


class TestRackMtu:
    """Oversize MTUs must fail at construction, not mid-simulation.

    Regression for the old behaviour where a >1518 B frame only blew up
    inside ``size_bin_index`` (SimulationError) once the first packet hit
    a switch counter, long after the misconfiguration was made.
    """

    def test_jumbo_mtu_rejected_at_config_time(self):
        with pytest.raises(ConfigError, match="1518"):
            RackConfig(mtu_bytes=9000)

    def test_tiny_mtu_rejected_at_config_time(self):
        with pytest.raises(ConfigError):
            RackConfig(mtu_bytes=32)

    def test_max_frame_mtu_builds_and_sends(self):
        sim = Simulator()
        config = RackConfig(
            name="t",
            switch=TorSwitchConfig(n_downlinks=2, n_uplinks=1),
            n_remote_hosts=1,
            mtu_bytes=1518,
        )
        rack = build_rack(sim, config)
        assert rack.servers[0].transport.mtu_bytes == 1518
        assert rack.remote_hosts[0].transport.mtu_bytes == 1518
        rack.servers[0].send_flow(rack.servers[1].name, 30_000, packet_size=1518)
        sim.run_for(ms(10))
        assert rack.servers[1].rx_bytes >= 30_000

    def test_flow_packet_size_capped_by_rack_mtu(self, small_rack):
        with pytest.raises(ConfigError, match="frame limits"):
            small_rack.servers[0].send_flow(
                small_rack.servers[1].name, 30_000, packet_size=1518
            )

    def test_transport_rejects_oversize_mtu_directly(self):
        from repro.netsim.host import Nic, WindowedTransport
        from repro.netsim.link import Link
        from repro.units import gbps

        sim = Simulator()
        nic = Nic(sim, Link(sim, "l", rate_bps=gbps(10)))
        with pytest.raises(ConfigError, match="histogram"):
            WindowedTransport(sim, "h", nic, mtu_bytes=9000)


class TestIncast:
    def test_fan_in_fills_buffer_and_can_drop(self):
        """Many-to-one traffic must stress the shared buffer (Sec 6.3)."""
        sim = Simulator(seed=3)
        config = RackConfig(
            name="t",
            switch=TorSwitchConfig(
                n_downlinks=4,
                n_uplinks=2,
                buffer=__import__("repro.netsim.buffer", fromlist=["BufferPolicy"]).BufferPolicy(
                    capacity_bytes=150_000, alpha=1.0
                ),
            ),
            n_remote_hosts=16,
        )
        rack = build_rack(sim, config)
        target = rack.servers[0]
        for remote in rack.remote_hosts:
            remote.send_flow(target.name, 300_000)
        sim.run_for(ms(30))
        peak = rack.tor.shared_buffer.peak_occupancy_read_and_reset()
        assert peak > 50_000
        victim_port = rack.tor.downlink_ports[0]
        assert victim_port.counters.tx_drops > 0
        # ~90 % of drops in the ToR-to-server direction (Sec 4.2)
        down_drops = sum(p.counters.tx_drops for p in rack.tor.downlink_ports)
        total = rack.tor.total_drops()
        assert down_drops / total > 0.9
