"""Discrete-event simulation engine.

The engine owns the clock and the event heap and runs callbacks in time
order.  Components (links, ports, hosts, samplers) schedule themselves
through :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.

A heap entry *is* the event: a plain ``(time_ns, seq, action, args)``
tuple.  ``seq`` comes from one counter in scheduling order, so keys are
unique, sift comparisons are C-level int compares that never reach the
(incomparable) action, and simultaneous events run FIFO — which keeps
whole simulations reproducible for a fixed seed.  There is no
cancellation: a timer that must not act checks its own state when it
fires.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.errors import SchedulingError, SimulationError
from repro.netsim.clock import SimClock


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random generator.  Components that
        need randomness should draw from :attr:`rng` (or from generators
        spawned off it) so a single seed reproduces the whole run.
    """

    def __init__(self, seed: int | np.random.Generator | None = 0) -> None:
        self.clock = SimClock()
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._peak_heap = 0
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        self._events_processed = 0
        self._running = False

    # -- scheduling --------------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def peak_heap_size(self) -> int:
        """High-water mark of pending events over the simulator's
        lifetime — the telemetry layer's memory-cost gauge for the
        engine."""
        return self._peak_heap

    def schedule(self, delay_ns: int, action: Callable[..., None], *args) -> None:
        """Schedule ``action(*args)`` after ``delay_ns`` relative to now.

        Passing ``args`` through the event (instead of closing over them)
        avoids allocating a fresh closure per scheduled packet, which
        matters on the per-packet hot path.
        """
        if delay_ns < 0:
            raise SchedulingError(f"negative delay {delay_ns}")
        heap = self._heap
        heappush(heap, (self.clock.now + int(delay_ns), next(self._seq), action, args))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def schedule_at(self, time_ns: int, action: Callable[..., None], *args) -> None:
        """Schedule ``action(*args)`` at absolute time ``time_ns`` (>= now).

        Together with :meth:`schedule`'s negative-delay check, this is
        the only way onto the heap, so the run loop never meets an event
        in the past.
        """
        if time_ns < self.clock.now:
            raise SchedulingError(
                f"cannot schedule at {time_ns} before now={self.clock.now}"
            )
        heap = self._heap
        heappush(heap, (int(time_ns), next(self._seq), action, args))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    # -- execution ---------------------------------------------------------

    def run_until(self, end_ns: int, max_events: int | None = None) -> int:
        """Process events up to and including ``end_ns``.

        Returns the number of events processed during this call.  The
        clock always finishes at exactly ``end_ns`` so periodic samplers
        and traffic sources observe a consistent end-of-run time.

        ``max_events`` bounds the number of events processed.  When more
        events remain due at or before ``end_ns`` after the bound is hit,
        the call raises :class:`SimulationError` with the clock left at
        the time of the last processed event — a consistent state from
        which a caller that catches the error may call ``run_until``
        again to resume exactly where the run stopped.  If the bound is
        reached but nothing else is due, the run completes normally and
        the clock advances to ``end_ns``.
        """
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        processed = 0
        # Hot loop: this runs once per simulated event, millions of times
        # per campaign window, so it walks the heap directly (no
        # per-event method calls) and advances the clock by plain
        # assignment; insertion already refused every time in the past.
        clock = self.clock
        heap = self._heap
        pop = heappop
        try:
            if max_events is None:
                while heap and heap[0][0] <= end_ns:
                    time_ns, _, action, args = pop(heap)
                    clock.now = time_ns
                    action(*args)
                    processed += 1
            else:
                while heap and heap[0][0] <= end_ns:
                    if processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"before reaching {end_ns}"
                        )
                    time_ns, _, action, args = pop(heap)
                    clock.now = time_ns
                    action(*args)
                    processed += 1
            clock.advance_to(end_ns)
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def run_for(self, duration_ns: int, max_events: int | None = None) -> int:
        """Process events for ``duration_ns`` from the current time."""
        return self.run_until(self.clock.now + int(duration_ns), max_events=max_events)
