"""Shared packet buffer with dynamic threshold carving.

ToR ASICs in the measured data center share one packet buffer across all
ports and carve it dynamically (the paper, Sec 5.1 footnote and Sec 6.4,
notes buffers are "shared and dynamically carved").  We implement the
classic Dynamic Threshold (DT) rule of Choudhury & Hahne: an egress queue
may grow only while its length is below ``alpha`` times the remaining
free buffer space.  Drops can therefore occur well before the buffer is
full, exactly the effect the paper mentions under Fig 10.

The buffer also maintains the *peak occupancy watermark* counter that the
paper's framework polls: highest total occupancy since the last read,
reset on read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class BufferPolicy:
    """Configuration of the shared buffer.

    Parameters
    ----------
    capacity_bytes:
        Total shared buffer capacity.  Commodity ToR ASICs of the paper's
        era (e.g. Trident II) carry 12–16 MB; we default to 12 MB.
    alpha:
        Dynamic-threshold aggressiveness.  A queue may admit a packet only
        while ``queue_len < alpha * free_space``.  Typical values 0.5–8.
    static_per_port_bytes:
        When > 0, disables dynamic carving and gives every port a fixed
        quota instead (used by the carving ablation benchmark).
    """

    capacity_bytes: int = 12 * 1024 * 1024
    alpha: float = 1.0
    static_per_port_bytes: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.static_per_port_bytes < 0:
            raise ValueError("static per-port quota cannot be negative")


class SharedBuffer:
    """Byte-granular shared buffer shared by all egress queues of a switch."""

    def __init__(self, policy: BufferPolicy | None = None) -> None:
        self.policy = policy or BufferPolicy()
        # Hot-path copies of the (frozen) policy fields: admit() runs
        # once per switched packet, and dataclass attribute reads add up.
        self._capacity = self.policy.capacity_bytes
        self._alpha = self.policy.alpha
        self._static = self.policy.static_per_port_bytes
        self._occupancy = 0
        self._peak_since_read = 0
        self._queue_bytes: dict[str, int] = {}

    # -- registration -------------------------------------------------------

    def register_queue(self, queue_id: str) -> None:
        """Declare an egress queue; queues must be registered before use."""
        if queue_id in self._queue_bytes:
            raise SimulationError(f"queue {queue_id!r} registered twice")
        self._queue_bytes[queue_id] = 0

    # -- admission ----------------------------------------------------------

    def admit(self, queue_id: str, size_bytes: int) -> bool:
        """Try to reserve ``size_bytes`` for ``queue_id``.

        Returns True and updates occupancy when admitted; returns False
        (congestion drop) when the DT rule or total capacity rejects it.
        """
        queue_len = self._queue_bytes[queue_id]
        if size_bytes <= 0:
            raise SimulationError(f"admit of non-positive size {size_bytes}")
        free = self._capacity - self._occupancy
        if size_bytes > free:
            return False
        if self._static > 0:
            allowed = queue_len + size_bytes <= self._static
        else:
            allowed = queue_len < self._alpha * free
        if not allowed:
            return False
        self._queue_bytes[queue_id] = queue_len + size_bytes
        self._occupancy += size_bytes
        if self._occupancy > self._peak_since_read:
            self._peak_since_read = self._occupancy
        return True

    def release(self, queue_id: str, size_bytes: int) -> None:
        """Return ``size_bytes`` to the free pool after a dequeue."""
        queue_len = self._queue_bytes[queue_id]
        if size_bytes > queue_len:
            raise SimulationError(
                f"releasing {size_bytes} bytes from queue {queue_id!r} "
                f"holding only {queue_len}"
            )
        self._queue_bytes[queue_id] = queue_len - size_bytes
        self._occupancy -= size_bytes
        if self._occupancy < 0:  # pragma: no cover - guarded by the check above
            raise SimulationError("negative buffer occupancy")

    # -- counters ------------------------------------------------------------

    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

    def queue_bytes(self, queue_id: str) -> int:
        return self._queue_bytes[queue_id]

    def peak_occupancy_read_and_reset(self) -> int:
        """The ASIC watermark counter: peak occupancy since last read.

        Reading resets the watermark to the *current* occupancy, so a
        standing queue is still reflected in the next sample (matching
        the read-and-reset semantics described in Sec 4.1).
        """
        peak = self._peak_since_read
        self._peak_since_read = self._occupancy
        return peak
