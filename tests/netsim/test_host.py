"""Server / NIC / transport tests."""

import pytest

from repro.errors import ConfigError
from repro.netsim import Simulator, build_rack
from repro.netsim.host import Nic, Server, WindowedTransport
from repro.netsim.link import Link
from repro.units import MTU, gbps, ms


class TestNic:
    def test_paces_at_line_rate(self):
        sim = Simulator()
        link = Link(sim, "nic", rate_bps=gbps(10), propagation_ns=0)
        sent = []
        link.connect(lambda p: sent.append((sim.now, p.size_bytes)))
        nic = Nic(sim, link)
        server = Server.__new__(Server)  # only need a flow source
        from repro.netsim.packet import FiveTuple, Packet

        flow = FiveTuple("a", "b", 1, 2)
        for i in range(3):
            nic.send(Packet(flow=flow, size_bytes=1500, seq=i))
        sim.run_until(ms(1))
        # back-to-back at 1.2 us serialization each
        assert [at for at, _ in sent] == [1200, 2400, 3600]
        assert len(sent) == 3
        assert sum(size for _, size in sent) == 4500


class TestTransport:
    def test_flow_completes_and_callback_fires(self, sim, small_rack):
        done = []
        small_rack.servers[0].send_flow(
            small_rack.servers[1].name, 50_000, on_complete=lambda f: done.append((sim.now, f))
        )
        sim.run_for(ms(20))
        assert len(done) == 1
        completed_ns, state = done[0]
        assert state.done
        assert 0 < completed_ns <= ms(20)
        assert state.acked == state.total_packets

    def test_received_bytes_match_flow_size(self, sim, small_rack):
        size = 100_000
        small_rack.servers[0].send_flow(small_rack.servers[1].name, size)
        sim.run_for(ms(20))
        import math

        expected_packets = math.ceil(size / MTU)
        assert small_rack.servers[1].transport  # receiver side exists
        # receiver counts data plus no stray packets
        data_bytes = expected_packets * MTU
        assert small_rack.servers[1].rx_bytes == data_bytes

    def test_slow_start_growth(self, sim, small_rack):
        state = small_rack.servers[0].send_flow(small_rack.servers[1].name, 500_000)
        initial = WindowedTransport.INITIAL_CWND
        sim.run_for(ms(5))
        assert state.cwnd > initial

    def test_acks_flow_back(self, sim, small_rack):
        """Reverse direction carries minimum-size ACKs through the ToR."""
        small_rack.servers[0].send_flow(small_rack.servers[1].name, 50_000)
        sim.run_for(ms(20))
        # ACKs from server 1 egress through server 0's downlink port
        port0 = small_rack.tor.downlink_ports[0]
        assert port0.counters.tx_size_hist[0] > 0  # 64-byte bin

    def test_timeout_recovery_after_losses(self):
        """Flows finish despite a tiny buffer forcing drops."""
        from repro.netsim import BufferPolicy, RackConfig, TorSwitchConfig

        sim = Simulator(seed=5)
        rack = build_rack(
            sim,
            RackConfig(
                name="t",
                switch=TorSwitchConfig(
                    n_downlinks=4,
                    n_uplinks=2,
                    buffer=BufferPolicy(capacity_bytes=60_000, alpha=0.5),
                ),
                n_remote_hosts=8,
                rto_ns=ms(2),
            ),
        )
        done = []
        for remote in rack.remote_hosts:
            remote.send_flow(rack.servers[0].name, 150_000, on_complete=done.append)
        sim.run_for(ms(200))
        assert rack.tor.total_drops() > 0
        assert len(done) == len(rack.remote_hosts)
        # More data reached the ToR than the flows hold: some was resent.
        data_in = sum(port.counters.rx_bytes for port in rack.tor.uplink_ports)
        assert data_in > len(rack.remote_hosts) * 150_000

    def test_flow_size_validation(self, sim, small_rack):
        with pytest.raises(ConfigError):
            small_rack.servers[0].send_flow(small_rack.servers[1].name, 0)
        with pytest.raises(ConfigError):
            small_rack.servers[0].send_flow(
                small_rack.servers[1].name, 1000, packet_size=20
            )

    def test_active_flow_accounting(self, sim, small_rack):
        transport = small_rack.servers[0].transport
        assert len(transport._flows) == 0
        done = []
        small_rack.servers[0].send_flow(small_rack.servers[1].name, 50_000, on_complete=done.append)
        assert len(transport._flows) == 1
        sim.run_for(ms(20))
        assert len(transport._flows) == 0
        assert len(done) == 1

    def test_app_data_hook(self, sim, small_rack):
        seen = []
        small_rack.servers[1].on_data_packet = seen.append
        small_rack.servers[0].send_flow(small_rack.servers[1].name, 30_000)
        sim.run_for(ms(20))
        assert len(seen) == 20  # 30000 / 1500
        assert all(not p.is_ack for p in seen)
