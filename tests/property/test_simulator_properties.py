"""Property-based tests for the event engine, through its public API.

Random mixes of ``schedule``/``schedule_at`` calls, with many equal
times and actions that schedule further events, must run in
``(time, scheduling order)`` order, leave ``events_processed`` and
``peak_heap_size`` agreeing with a naive list-scan model, and give the
same order when a run is cut by ``max_events`` and resumed.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim import Simulator

#: An event: (scheduling call, delay, events its action schedules).
#: Delays come from a narrow range so equal times are common.
events = st.recursive(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), st.integers(0, 20), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(["schedule", "schedule_at"]),
        st.integers(0, 20),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=30,
)
roots = st.lists(events, max_size=8)
horizons = st.integers(0, 80)


def _label(nodes, counter=None):
    """Give every event a unique label, so runs can be compared."""
    counter = itertools.count() if counter is None else counter
    return tuple(
        (kind, delay, next(counter), _label(children, counter))
        for kind, delay, children in nodes
    )


def _install(sim: Simulator, nodes) -> list[tuple[int, int]]:
    """Schedule ``nodes`` on ``sim``; return the ``(label, time)`` log
    their actions append to as they run."""
    fired = []

    def fire(label, children):
        fired.append((label, sim.now))
        for node in children:
            push(node)

    def push(node):
        kind, delay, label, children = node
        if kind == "schedule":
            sim.schedule(delay, fire, label, children)
        else:
            sim.schedule_at(sim.now + delay, fire, label, children)

    for node in nodes:
        push(node)
    return fired


def _model(nodes, end_ns: int):
    """Naive engine: a plain list scanned for its ``(time, seq)`` minimum.

    Returns the ``(label, time)`` run order and the largest number of
    pending events seen right after any insertion.
    """
    pending = []
    seq = itertools.count()
    now = 0
    peak = 0

    def push(node):
        nonlocal peak
        _, delay, label, children = node
        pending.append((now + delay, next(seq), label, children))
        peak = max(peak, len(pending))

    for node in nodes:
        push(node)
    order = []
    while pending:
        entry = min(pending, key=lambda item: item[:2])
        if entry[0] > end_ns:
            break
        pending.remove(entry)
        now, _, label, children = entry
        order.append((label, now))
        for node in children:
            push(node)
    return order, peak


@given(roots, horizons)
@settings(max_examples=200)
def test_run_order_and_counters_match_naive_model(nodes, end_ns):
    nodes = _label(nodes)
    expected_order, expected_peak = _model(nodes, end_ns)

    sim = Simulator()
    fired = _install(sim, nodes)
    processed = sim.run_until(end_ns)

    assert fired == expected_order
    assert processed == sim.events_processed == len(expected_order)
    assert sim.peak_heap_size == expected_peak
    assert sim.now == end_ns


@given(roots, horizons, st.integers(1, 6))
@settings(max_examples=200)
def test_run_cut_by_max_events_resumes_in_unbounded_order(nodes, end_ns, max_events):
    nodes = _label(nodes)
    expected_order, _ = _model(nodes, end_ns)

    sim = Simulator()
    fired = _install(sim, nodes)
    while True:
        before = len(fired)
        try:
            sim.run_until(end_ns, max_events=max_events)
            break
        except SimulationError:
            # Cut after exactly the bound, with the clock at the last
            # processed event, so the next call resumes where this stopped.
            assert len(fired) - before == max_events
            assert sim.now == fired[-1][1]

    assert fired == expected_order
    assert sim.events_processed == len(expected_order)
    assert sim.now == end_ns

