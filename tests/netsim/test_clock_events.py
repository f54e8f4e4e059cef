"""Simulation clock tests."""

import pytest

from repro.errors import SchedulingError
from repro.netsim.clock import SimClock


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
