"""Port queueing and counter tests."""

import pytest

from repro.errors import SimulationError
from repro.netsim import BufferPolicy, Link, SharedBuffer
from repro.netsim.packet import FiveTuple, Packet
from repro.netsim.port import (
    SIZE_BIN_EDGES,
    SIZE_BIN_LABELS,
    Port,
    size_bin_index,
)
from repro.units import gbps


def make_port(sim, capacity=1_000_000, rate=gbps(10)):
    shared = SharedBuffer(BufferPolicy(capacity_bytes=capacity, alpha=8.0))
    link = Link(sim, "out", rate_bps=rate, propagation_ns=0)
    delivered = []
    link.connect(delivered.append)
    port = Port(sim, "p0", link, shared)
    return port, delivered, shared


def packet(size=1500, seq=0):
    flow = FiveTuple("a", "b", 1, 2)
    return Packet(flow=flow, size_bytes=size, seq=seq)


class TestSizeBins:
    def test_bin_edges_cover_frame_sizes(self):
        assert size_bin_index(64) == 0
        assert size_bin_index(65) == 1
        assert size_bin_index(127) == 1
        assert size_bin_index(128) == 2
        assert size_bin_index(1024) == 5
        assert size_bin_index(1500) == 5

    def test_oversize_rejected(self):
        with pytest.raises(SimulationError):
            size_bin_index(2000)

    def test_labels_match_edges(self):
        assert len(SIZE_BIN_LABELS) == len(SIZE_BIN_EDGES)


class TestPortDataPath:
    def test_fifo_delivery(self, sim):
        port, delivered, _ = make_port(sim)
        for seq in range(3):
            port.enqueue(packet(seq=seq))
        sim.run_until(1_000_000)
        assert [p.seq for p in delivered] == [0, 1, 2]

    def test_serialization_paces_output(self, sim):
        port, delivered, _ = make_port(sim)
        port.enqueue(packet())
        port.enqueue(packet())
        # second packet cannot finish before 2 serialization times
        sim.run_until(1200)
        assert len(delivered) == 1
        sim.run_until(2400)
        assert len(delivered) == 2

    def test_buffer_released_after_transmit(self, sim):
        port, _, shared = make_port(sim)
        port.enqueue(packet())
        assert shared.occupancy_bytes == 1500
        sim.run_until(1_000_000)
        assert shared.occupancy_bytes == 0

    def test_drop_on_full_buffer(self, sim):
        port, _, shared = make_port(sim, capacity=3000)
        assert port.enqueue(packet())
        assert port.enqueue(packet())
        assert not port.enqueue(packet())  # 3rd exceeds capacity
        assert port.counters.tx_drops == 1
        assert shared.occupancy_bytes == 3000  # the buffer refused it


class TestPortCounters:
    def test_tx_counters_on_completion(self, sim):
        port, _, _ = make_port(sim)
        port.enqueue(packet(size=1500))
        port.enqueue(packet(size=100))
        sim.run_until(1_000_000)
        counters = port.counters
        assert counters.tx_bytes == 1600
        assert sum(counters.tx_size_hist) == 2
        assert counters.tx_size_hist[5] == 1  # 1500 B
        assert counters.tx_size_hist[1] == 1  # 100 B

    def test_tx_bytes_not_counted_until_sent(self, sim):
        port, _, _ = make_port(sim)
        port.enqueue(packet())
        assert port.counters.tx_bytes == 0  # still serializing

    def test_rx_counters(self, sim):
        port, _, _ = make_port(sim)
        port.note_ingress(packet(size=200))
        assert port.counters.rx_bytes == 200

    def test_drops_not_counted_in_tx_bytes(self, sim):
        port, _, _ = make_port(sim, capacity=1500)
        port.enqueue(packet())
        port.enqueue(packet())  # dropped
        sim.run_until(1_000_000)
        assert port.counters.tx_bytes == 1500
        assert port.counters.tx_drops == 1

    def test_queue_depth_property(self, sim):
        port, _, _ = make_port(sim)
        port.enqueue(packet())
        port.enqueue(packet())
        assert port.queue_depth_bytes == 3000
