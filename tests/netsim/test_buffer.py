"""Shared-buffer (dynamic threshold) tests."""

import pytest

from repro.errors import SimulationError
from repro.netsim.buffer import BufferPolicy, SharedBuffer


@pytest.fixture
def buffer():
    shared = SharedBuffer(BufferPolicy(capacity_bytes=10_000, alpha=1.0))
    shared.register_queue("q0")
    shared.register_queue("q1")
    return shared


class TestAdmission:
    def test_admit_updates_occupancy(self, buffer):
        assert buffer.admit("q0", 1000)
        assert buffer.occupancy_bytes == 1000
        assert buffer.queue_bytes("q0") == 1000

    def test_capacity_rejection(self, buffer):
        assert buffer.admit("q0", 4000)
        assert buffer.admit("q1", 4000)
        # only 2000 free; DT still allows smaller packets
        assert not buffer.admit("q0", 3000)
        assert buffer.occupancy_bytes == 8000
        assert buffer.queue_bytes("q0") == 4000

    def test_dynamic_threshold_blocks_hog_queue(self, buffer):
        # alpha=1: queue may grow while queue_len < free space.
        # Fill q0 until DT stops it; q1 must still be admissible.
        admitted = 0
        while buffer.admit("q0", 1000):
            admitted += 1
        assert 0 < admitted < 10
        # q0 blocked but q1 (empty) may still enqueue
        assert buffer.admit("q1", 1000)

    def test_dt_rule_exact_boundary(self):
        shared = SharedBuffer(BufferPolicy(capacity_bytes=10_000, alpha=1.0))
        shared.register_queue("q")
        assert shared.admit("q", 5000)  # 0 < 10000 free
        # now queue_len (5000) == alpha * free (5000): not strictly less -> reject
        assert not shared.admit("q", 1)

    def test_static_carving_mode(self):
        shared = SharedBuffer(
            BufferPolicy(capacity_bytes=10_000, alpha=1.0, static_per_port_bytes=2000)
        )
        shared.register_queue("q")
        assert shared.admit("q", 2000)
        assert not shared.admit("q", 1)

    def test_non_positive_admit_rejected(self, buffer):
        with pytest.raises(SimulationError):
            buffer.admit("q0", 0)

    def test_unknown_queue_raises(self, buffer):
        with pytest.raises(KeyError):
            buffer.admit("nope", 100)

    def test_duplicate_registration_rejected(self, buffer):
        with pytest.raises(SimulationError):
            buffer.register_queue("q0")


class TestRelease:
    def test_release_returns_space(self, buffer):
        buffer.admit("q0", 3000)
        buffer.release("q0", 3000)
        assert buffer.occupancy_bytes == 0
        assert buffer.queue_bytes("q0") == 0

    def test_over_release_rejected(self, buffer):
        buffer.admit("q0", 100)
        with pytest.raises(SimulationError):
            buffer.release("q0", 200)

    def test_conservation(self, buffer, rng):
        """Admitted bytes == released + held, always non-negative."""
        held = {"q0": 0, "q1": 0}
        for _ in range(500):
            queue = "q0" if rng.random() < 0.5 else "q1"
            if rng.random() < 0.6:
                size = int(rng.integers(64, 1500))
                if buffer.admit(queue, size):
                    held[queue] += size
            elif held[queue] > 0:
                buffer.release(queue, held[queue])
                held[queue] = 0
            assert buffer.occupancy_bytes == held["q0"] + held["q1"]
            assert 0 <= buffer.occupancy_bytes <= 10_000


class TestWatermark:
    def test_peak_tracks_maximum(self, buffer):
        buffer.admit("q0", 4000)
        buffer.admit("q1", 3000)
        buffer.release("q0", 4000)
        assert buffer.peak_occupancy_read_and_reset() == 7000

    def test_reset_to_current_occupancy(self, buffer):
        buffer.admit("q0", 4000)
        buffer.peak_occupancy_read_and_reset()
        # standing queue still reflected after reset (Sec 4.1 semantics)
        assert buffer.peak_occupancy_read_and_reset() == 4000

    def test_peak_not_lost_between_reads(self, buffer):
        buffer.admit("q0", 5000)
        buffer.release("q0", 5000)
        # burst fully drained before the read: watermark still caught it
        assert buffer.peak_occupancy_read_and_reset() == 5000
        assert buffer.peak_occupancy_read_and_reset() == 0

    def test_occupancy_fraction(self, buffer):
        buffer.admit("q0", 2500)
        assert buffer.occupancy_bytes / buffer.policy.capacity_bytes == pytest.approx(0.25)


class TestPolicyValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            BufferPolicy(capacity_bytes=0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            BufferPolicy(alpha=0.0)

    def test_bad_static_quota(self):
        with pytest.raises(ValueError):
            BufferPolicy(static_per_port_bytes=-1)
