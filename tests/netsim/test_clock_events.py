"""Clock and event-queue tests."""

import pytest

from repro.errors import SchedulingError
from repro.netsim.clock import SimClock
from repro.netsim.events import EventQueue


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_advance_to_same_time_allowed(self):
        clock = SimClock(50)
        clock.advance_to(50)
        assert clock.now == 50

    def test_no_time_travel(self):
        clock = SimClock(100)
        with pytest.raises(SchedulingError):
            clock.advance_to(99)

    def test_negative_start_rejected(self):
        with pytest.raises(SchedulingError):
            SimClock(-1)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(30, lambda: fired.append(30))
        queue.push(10, lambda: fired.append(10))
        queue.push(20, lambda: fired.append(20))
        while queue:
            queue.pop().action()
        assert fired == [10, 20, 30]

    def test_fifo_for_simultaneous_events(self):
        queue = EventQueue()
        fired = []
        for label in ("a", "b", "c"):
            queue.push(5, lambda label=label: fired.append(label))
        while queue:
            queue.pop().action()
        assert fired == ["a", "b", "c"]

    def test_cancellation_skips_event(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1, lambda: fired.append("cancelled"))
        queue.push(2, lambda: fired.append("kept"))
        event.cancel()
        while queue:
            queue.pop().action()
        assert fired == ["kept"]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        first = queue.push(7, lambda: None)
        queue.push(9, lambda: None)
        assert queue.peek_time() == 7
        first.cancel()
        assert queue.peek_time() == 9

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(-5, lambda: None)

    def test_len_is_live_counter_not_heap_scan(self):
        queue = EventQueue()
        events = [queue.push(i, lambda: None) for i in range(10)]
        assert len(queue) == 10 and bool(queue)
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        while queue:
            queue.pop()
        assert len(queue) == 0 and not queue

    def test_cancel_after_pop_is_inert(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert queue.pop() is event
        event.cancel()  # must not corrupt the live counter
        assert len(queue) == 1
        assert queue.pop().time_ns == 2

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_heap_stays_bounded_under_mass_cancellation(self):
        # Regression: cancelled entries used to linger until they reached
        # the heap top, so timer-heavy workloads grew the heap without
        # bound.  Compaction keeps physical size within a constant factor
        # of the live count.
        queue = EventQueue()
        keeper = queue.push(10**9, lambda: None)
        for i in range(10_000):
            queue.push(i + 1, lambda: None).cancel()
            assert len(queue._heap) <= max(queue.COMPACT_MIN, 2 * len(queue)) + 1
        assert len(queue) == 1
        assert queue.pop() is keeper

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        events = [queue.push(time, lambda: None) for time in (5, 3, 9, 3, 7, 1)]
        events[2].cancel()
        queue.compact()
        order = [(queue.pop().time_ns) for _ in range(5)]
        assert order == [1, 3, 3, 5, 7]
