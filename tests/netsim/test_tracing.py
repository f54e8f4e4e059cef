"""Counter-surface tests."""

import pytest

from repro.errors import CounterError
from repro.netsim import SwitchCounterSurface
from repro.netsim.port import SIZE_BIN_EDGES
from repro.units import ms


@pytest.fixture
def surface_with_traffic(sim, small_rack):
    small_rack.servers[0].send_flow(small_rack.servers[1].name, 60_000)
    small_rack.servers[2].send_flow(small_rack.remote_hosts[0].name, 60_000)
    sim.run_for(ms(20))
    return SwitchCounterSurface(small_rack.tor), small_rack


class TestDiscovery:
    def test_port_names(self, surface_with_traffic):
        surface, rack = surface_with_traffic
        assert set(surface.port_names) == {"down0", "down1", "down2", "down3", "up0", "up1"}

    def test_port_rate(self, surface_with_traffic):
        surface, rack = surface_with_traffic
        assert surface.port_rate_bps("down0") == rack.config.switch.downlink_rate_bps

    def test_unknown_port_raises(self, surface_with_traffic):
        surface, _ = surface_with_traffic
        with pytest.raises(CounterError):
            surface.read_tx_bytes("down99")


class TestReads:
    def test_tx_bytes_match_port_counters(self, surface_with_traffic):
        surface, rack = surface_with_traffic
        assert surface.read_tx_bytes("down1") == rack.tor.downlink_ports[1].counters.tx_bytes
        assert surface.read_tx_bytes("down1") >= 60_000

    def test_rx_and_drops(self, surface_with_traffic):
        surface, rack = surface_with_traffic
        assert surface.read_rx_bytes("down0") >= 60_000
        assert surface.read_tx_drops("down0") == 0

    def test_histograms_sum_to_packets(self, sim, small_rack):
        # Server 1 sends nothing, so every packet it receives is data.
        delivered = []
        small_rack.servers[1].on_data_packet = delivered.append
        small_rack.servers[0].send_flow(small_rack.servers[1].name, 60_000)
        sim.run_for(ms(20))
        hist = SwitchCounterSurface(small_rack.tor).read_tx_size_histogram("down1")
        assert len(hist) == len(SIZE_BIN_EDGES)
        assert sum(hist) == len(delivered) == 40

    def test_peak_buffer_read_and_reset(self, surface_with_traffic):
        surface, _ = surface_with_traffic
        first = surface.read_peak_buffer_and_reset()
        assert first > 0
        second = surface.read_peak_buffer_and_reset()
        assert second <= first

    def test_buffer_capacity_and_occupancy(self, surface_with_traffic):
        surface, rack = surface_with_traffic
        assert surface.buffer_capacity_bytes == rack.config.switch.buffer.capacity_bytes
        assert rack.tor.shared_buffer.occupancy_bytes == 0  # traffic drained
