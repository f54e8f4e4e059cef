"""Simulator engine tests."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.netsim import Simulator


def test_schedule_and_run():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(sim.now))
    sim.schedule(50, lambda: fired.append(sim.now))
    sim.run_until(1000)
    assert fired == [50, 100]
    assert sim.now == 1000


def test_clock_ends_exactly_at_end_time():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until(500)
    assert sim.now == 500


def test_events_beyond_horizon_not_run():
    sim = Simulator()
    fired = []
    sim.schedule(200, lambda: fired.append("late"))
    sim.run_until(100)
    assert fired == []
    sim.run_until(300)
    assert fired == ["late"]


def test_event_scheduled_during_run_executes():
    sim = Simulator()
    fired = []

    def first():
        sim.schedule(10, lambda: fired.append("second"))

    sim.schedule(10, first)
    sim.run_until(100)
    assert fired == ["second"]


def test_run_for_relative():
    sim = Simulator()
    sim.run_until(100)
    fired = []
    sim.schedule(50, lambda: fired.append(sim.now))
    sim.run_for(60)
    assert fired == [150]
    assert sim.now == 160


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.schedule_at(99, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(1, reschedule)

    sim.schedule(1, reschedule)
    with pytest.raises(SimulationError):
        sim.run_until(10_000_000, max_events=100)


def test_max_events_exact_bound_completes_and_advances_clock():
    # Regression: processing exactly max_events used to raise even when
    # the simulation was finished, leaving the clock short of end_ns.
    sim = Simulator()
    fired = []
    for delay in (10, 20, 30):
        sim.schedule(delay, lambda d=delay: fired.append(d))
    processed = sim.run_until(1000, max_events=3)
    assert processed == 3
    assert fired == [10, 20, 30]
    assert sim.now == 1000  # clock reaches the horizon on the clean path


def test_zero_max_events_runs_nothing_that_is_due():
    # Regression: the bound used to be checked only after an event ran,
    # so max_events=0 still processed one event before raising.
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    with pytest.raises(SimulationError):
        sim.run_until(100, max_events=0)
    assert fired == [] and sim.now == 0
    assert sim.run_until(5, max_events=0) == 0  # nothing due: completes
    assert sim.now == 5


def test_max_events_raise_leaves_consistent_resumable_clock():
    # Regression: the raise path must leave the clock at the last
    # processed event (not stuck at the start, not jumped to end_ns past
    # unprocessed events) so a caller that catches the error can resume.
    sim = Simulator()
    fired = []

    def reschedule():
        fired.append(sim.now)
        sim.schedule(1, reschedule)

    sim.schedule(1, reschedule)
    with pytest.raises(SimulationError):
        sim.run_until(10_000, max_events=5)
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 5  # time of the last processed event

    # Resuming picks up exactly where the bounded run stopped.
    with pytest.raises(SimulationError):
        sim.run_until(10_000, max_events=5)
    assert fired == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert sim.now == 10


def test_deterministic_given_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []
        for delay in (5, 15, 25):
            sim.schedule(delay, lambda: values.append(float(sim.rng.random())))
        sim.run_until(100)
        return values

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_events_processed_counter():
    sim = Simulator()
    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    sim.run_until(10)
    assert sim.events_processed == 3
