"""Event queue for the discrete-event engine.

Events are ordered by (time, sequence); the sequence number makes the
ordering of simultaneous events deterministic (FIFO in scheduling order),
which keeps whole simulations reproducible for a fixed seed.

Performance notes (this is the simulator's hottest data structure):

* Heap entries are plain ``(time_ns, seq, event)`` tuples, so every
  sift comparison is a C-level int compare — the previous dataclass
  ``Event.__lt__`` accounted for ~20 % of simulation wall time on its
  own.  ``seq`` is unique, so ties never reach the (incomparable) event.
* ``__len__``/``__bool__`` are O(1): a live-event counter is maintained
  across push/pop/cancel instead of scanning the heap.
* Cancellation stays O(1) lazy deletion, but the queue now *compacts*
  (drops cancelled entries and re-heapifies) once cancelled entries
  outnumber live ones, so timer-cancelling workloads cannot grow the
  heap without bound over long windows.  Compaction preserves pop order
  exactly: entries are totally ordered by the unique ``(time, seq)``
  key, and heapify cannot reorder equal keys because there are none.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from repro.errors import SchedulingError

Action = Callable[..., None]


class Event:
    """A scheduled callback.

    ``cancelled`` events stay in the heap but are skipped when popped;
    this is the standard lazy-deletion trick and keeps cancellation O(1).
    ``args`` are passed to ``action`` when the event runs, which lets
    per-packet hot paths schedule bound methods instead of allocating a
    fresh closure per packet.
    """

    __slots__ = ("time_ns", "seq", "action", "args", "cancelled", "_queue")

    def __init__(
        self, time_ns: int, seq: int, action: Action, args: tuple = ()
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.action = action
        self.args = args
        self.cancelled = False
        self._queue: "EventQueue | None" = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                self._queue = None
                queue._note_cancel()


class EventQueue:
    """Binary-heap event queue with deterministic tie-breaking."""

    #: never bother compacting below this many cancelled entries
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._next_seq = 0
        self._live = 0
        self._cancelled = 0
        self._peak_heap = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def peak_heap_size(self) -> int:
        """High-water mark of physical heap entries over the queue's
        lifetime (compaction shrinks the heap but never the peak) —
        the telemetry layer's memory-cost gauge for the engine."""
        return self._peak_heap

    def push(self, time_ns: int, action: Action, args: tuple = ()) -> Event:
        """Schedule ``action(*args)`` at absolute time ``time_ns``.

        This is the reference implementation; ``Simulator.schedule`` /
        ``schedule_at`` inline the same logic to drop one Python call per
        scheduled event.  Keep the three in sync.
        """
        if time_ns < 0:
            raise SchedulingError(f"cannot schedule event at negative time {time_ns}")
        time_ns = int(time_ns)
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time_ns, seq, action, args)
        event._queue = self
        heappush(self._heap, (time_ns, seq, event))
        self._live += 1
        if len(self._heap) > self._peak_heap:
            self._peak_heap = len(self._heap)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            self._live -= 1
            return event
        raise SchedulingError("pop from empty event queue")

    def pop_due(self, end_ns: int) -> Event | None:
        """Fused peek/pop: the earliest live event at or before ``end_ns``,
        or None when the queue is empty or the next event lies beyond it.

        This is the engine's inner-loop primitive — one heap traversal
        per processed event instead of a peek followed by a pop.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if head[0] > end_ns:
                return None
            heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    # -- lazy-deletion bookkeeping -----------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > self.COMPACT_MIN and self._cancelled > self._live:
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Runs automatically once cancelled entries outnumber live ones
        (amortised O(1) per cancellation), bounding heap growth for
        retransmit-style workloads that cancel most of their timers.
        """
        if self._cancelled:
            # In-place rebuild: the engine's run loop holds a direct
            # reference to this list, so the heap's identity must survive
            # compaction triggered by a cancel inside an event action.
            heap = self._heap
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._cancelled = 0
