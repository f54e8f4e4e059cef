"""Property-based tests for the event queue's counter bookkeeping.

The queue keeps ``__len__``/``__bool__`` O(1) with a live counter and
bounds lazy-deletion garbage with compaction.  Any push/pop/cancel
schedule must leave the counters agreeing with a naive model, pop events
in exact (time, scheduling-order) order, and keep the physical heap
within a constant factor of the live count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.events import EventQueue

#: (op, value): push at time `value`, cancel the `value`-th oldest live
#: event, or pop (value unused).
operations = st.lists(
    st.tuples(
        st.sampled_from(["push", "cancel", "pop"]),
        st.integers(0, 1_000),
    ),
    max_size=300,
)


@given(operations)
@settings(max_examples=200)
def test_counters_match_naive_model_under_any_schedule(ops):
    queue = EventQueue()
    live = []  # model: live events in scheduling order
    for op, value in ops:
        if op == "push":
            live.append(queue.push(value, lambda: None))
        elif op == "cancel" and live:
            live.pop(value % len(live)).cancel()
        elif op == "pop" and live:
            event = queue.pop()
            # pop returned the minimum (time, seq) live event.
            assert not event.cancelled
            assert event is min(live, key=lambda e: (e.time_ns, e.seq))
            live.remove(event)
        # Counter invariants after every step.
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        # Physical heap = live + pending-cancelled entries, and
        # compaction keeps the garbage bounded.
        assert len(queue._heap) >= len(queue)
        assert (
            len(queue._heap)
            <= len(queue) + max(queue.COMPACT_MIN, len(queue)) + 1
        )

    # Drain: remaining pops come out in (time, scheduling-order) order.
    expected = sorted(live, key=lambda e: (e.time_ns, e.seq))
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == expected
    assert len(queue) == 0 and queue.peek_time() is None


@given(operations)
@settings(max_examples=100)
def test_explicit_compaction_never_changes_observable_state(ops):
    queue = EventQueue()
    live = []
    for op, value in ops:
        if op == "push":
            live.append(queue.push(value, lambda: None))
        elif op == "cancel" and live:
            live.pop(value % len(live)).cancel()
        elif op == "pop" and live:
            live.remove(queue.pop())
    before = (len(queue), queue.peek_time())
    queue.compact()
    assert (len(queue), queue.peek_time()) == before
    assert len(queue._heap) == len(queue)  # all garbage gone
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == sorted(live, key=lambda e: (e.time_ns, e.seq))
