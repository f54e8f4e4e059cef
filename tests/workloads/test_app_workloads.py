"""Application workload behaviour tests.

These verify the *qualitative* traffic properties the paper attributes
to each application (Secs 4.2, 6.2, 6.3) on the packet simulator.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.netsim import RackConfig, Simulator, TorSwitchConfig, build_rack
from repro.units import ms
from repro.workloads import (
    CacheConfig,
    CacheWorkload,
    HadoopConfig,
    HadoopWorkload,
    WebConfig,
    WebWorkload,
)
from repro.workloads.packetsize import APP_PACKET_MIX, PacketSizeModel, PacketMix


def run_workload(
    workload_class, config, duration_ns=ms(60), seed=11, drain_ns=0, on_rack=None, **rack_kwargs
):
    sim = Simulator(seed=seed)
    rack = build_rack(
        sim,
        RackConfig(
            name="t",
            switch=TorSwitchConfig(n_downlinks=8, n_uplinks=4),
            n_remote_hosts=24,
            **rack_kwargs,
        ),
    )
    if on_rack is not None:
        on_rack(rack)
    workload = workload_class(rack, config, rng=seed)
    workload.install(until_ns=duration_ns)
    sim.run_for(duration_ns + drain_ns)
    return rack, workload


class TestWeb:
    def test_fan_in_toward_servers(self):
        rack, workload = run_workload(WebWorkload, WebConfig(request_rate_per_s=80))
        assert workload.stats.requests_issued > 0
        down_rx = sum(p.counters.tx_bytes for p in rack.tor.downlink_ports)
        up_tx = sum(p.counters.tx_bytes for p in rack.tor.uplink_ports)
        # fan-in responses (to servers) dominate page responses (to users)
        assert down_rx > up_tx

    def test_requests_complete_and_pages_ship(self):
        # Remote hosts receive data only as pages from the rack's servers.
        pages = set()

        def watch_users(rack):
            for remote in rack.remote_hosts:
                remote.on_data_packet = lambda packet: pages.add(packet.flow)

        rack, workload = run_workload(
            WebWorkload,
            WebConfig(request_rate_per_s=40, fanout=8),
            drain_ns=ms(100),
            on_rack=watch_users,
        )
        servers = {server.name for server in rack.servers}
        assert workload.stats.requests_completed > 0
        assert all(flow.src_host in servers for flow in pages)
        assert len(pages) == workload.stats.requests_completed

    def test_needs_remote_hosts(self):
        sim = Simulator()
        rack = build_rack(sim, RackConfig(n_remote_hosts=0))
        with pytest.raises(ConfigError):
            WebWorkload(rack)

    def test_install_idempotent(self):
        rack, workload = run_workload(WebWorkload, WebConfig(request_rate_per_s=10))
        before = workload.stats.requests_issued
        workload.install()  # second call must not double the sources
        rack.sim.run_for(ms(1))
        assert workload.stats.requests_issued >= before


class TestCache:
    def test_uplink_bound(self):
        rack, workload = run_workload(CacheWorkload, CacheConfig(batch_rate_per_s=300))
        up_tx = sum(p.counters.tx_bytes for p in rack.tor.uplink_ports)
        down_tx = sum(p.counters.tx_bytes for p in rack.tor.downlink_ports)
        # responses leave via uplinks and dwarf ToR->server traffic
        assert up_tx > down_tx

    def test_group_members_activate_together(self):
        rack, workload = run_workload(
            CacheWorkload, CacheConfig(batch_rate_per_s=200, group_size=4)
        )
        # per-server bytes into the ToR: members of the same group should be similar
        sent = np.array([p.counters.rx_bytes for p in rack.tor.downlink_ports])
        assert sent.sum() > 0
        groups = workload.groups
        assert all(len(g) <= 4 for g in groups)

    def test_leaders_assigned(self):
        rack, workload = run_workload(CacheWorkload, CacheConfig())
        assert workload.leaders == [g[0] for g in workload.groups]


class TestHadoop:
    def test_full_mtu_dominates(self):
        rack, _ = run_workload(HadoopWorkload, HadoopConfig())
        hist = np.zeros(6, dtype=np.int64)
        for port in rack.tor.all_ports:
            hist += np.asarray(port.counters.tx_size_hist)
        data_packets = hist[1:].sum()  # exclude the 64 B ACK bin
        if data_packets > 0:
            assert hist[5] / data_packets > 0.7

    def test_local_and_remote_transfers(self):
        rack, workload = run_workload(
            HadoopWorkload, HadoopConfig(local_fraction=0.5, transfer_rate_per_s=30)
        )
        assert workload.stats.requests_issued > 0
        up_tx = sum(p.counters.tx_bytes for p in rack.tor.uplink_ports)
        local_traffic = sum(p.counters.tx_bytes for p in rack.tor.downlink_ports)
        assert up_tx > 0 and local_traffic > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HadoopConfig(local_fraction=1.5)
        with pytest.raises(ConfigError):
            HadoopConfig(transfer_rate_per_s=0)


class TestPacketSizeModel:
    def test_mix_per_app(self, rng):
        hadoop = PacketSizeModel(APP_PACKET_MIX["hadoop"])
        web = PacketSizeModel(APP_PACKET_MIX["web"])
        assert hadoop.mean_size() > web.mean_size()
        sizes = [hadoop.data_packet_size(rng) for _ in range(500)]
        assert (np.asarray(sizes) == 1500).mean() > 0.8

    def test_mix_validation(self):
        with pytest.raises(ConfigError):
            PacketMix(sizes=(10,), weights=(1.0,))  # below MIN_PACKET
        with pytest.raises(ConfigError):
            PacketMix(sizes=(100,), weights=(0.0,))
