"""Discrete-event simulation engine.

The engine owns the clock and the event queue and runs callbacks in time
order.  Components (links, ports, hosts, samplers) schedule themselves
through :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.errors import SchedulingError, SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.events import Event, EventQueue


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
        self.queue = EventQueue()
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

    def schedule(self, delay_ns: int, action: Callable[..., None], *args) -> Event:
        """Schedule ``action(*args)`` after ``delay_ns`` relative to now.

        Passing ``args`` through the event (instead of closing over them)
        avoids allocating a fresh closure per scheduled packet, which
        matters on the per-packet hot path.
        """
        if delay_ns < 0:
            raise SchedulingError(f"negative delay {delay_ns}")
        # Inlined EventQueue.push (events.py keeps the reference copy):
        # one Python call per scheduled packet is measurable at campaign
        # scale, and the negative-time re-check is redundant here.
        time_ns = self.clock.now + int(delay_ns)
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        event = Event(time_ns, seq, action, args)
        event._queue = queue
        heap = queue._heap
        heappush(heap, (time_ns, seq, event))
        queue._live += 1
        if len(heap) > queue._peak_heap:
            queue._peak_heap = len(heap)
        return event

    def schedule_at(self, time_ns: int, action: Callable[..., None], *args) -> Event:
        """Schedule ``action(*args)`` at absolute time ``time_ns`` (>= now)."""
        if time_ns < self.clock.now:
            raise SchedulingError(
                f"cannot schedule at {time_ns} before now={self.clock.now}"
            )
        # Inlined EventQueue.push — see schedule() above.
        time_ns = int(time_ns)
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        event = Event(time_ns, seq, action, args)
        event._queue = queue
        heap = queue._heap
        heappush(heap, (time_ns, seq, event))
        queue._live += 1
        if len(heap) > queue._peak_heap:
            queue._peak_heap = len(heap)
        return event

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
        # per campaign window, so the unbounded path walks the heap
        # directly (no per-event method calls) and advances the clock by
        # plain assignment.  compact() rebuilds the heap list in place,
        # so the local reference stays valid across event actions.
        queue = self.queue
        clock = self.clock
        heap = queue._heap
        pop = heappop
        now_ns = clock.now
        try:
            if max_events is None:
                while heap:
                    entry = heap[0]
                    event = entry[2]
                    if event.cancelled:
                        pop(heap)
                        queue._cancelled -= 1
                        continue
                    time_ns = entry[0]
                    if time_ns > end_ns:
                        break
                    pop(heap)
                    queue._live -= 1
                    event._queue = None
                    if time_ns < now_ns:
                        # Only reachable via a raw queue.push into the
                        # past; delegate for the standard error message.
                        clock.advance_to(time_ns)
                    now_ns = time_ns
                    clock.now = time_ns
                    event.action(*event.args)
                    processed += 1
            else:
                pop_due = queue.pop_due
                advance = clock.advance_to
                while (event := pop_due(end_ns)) is not None:
                    advance(event.time_ns)
                    event.action(*event.args)
                    processed += 1
                    if processed >= max_events:
                        next_time = queue.peek_time()
                        if next_time is not None and next_time <= end_ns:
                            raise SimulationError(
                                f"exceeded max_events={max_events} "
                                f"before reaching {end_ns}"
                            )
                        break
            self.clock.advance_to(end_ns)
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def run_for(self, duration_ns: int, max_events: int | None = None) -> int:
        """Process events for ``duration_ns`` from the current time."""
        return self.run_until(self.clock.now + int(duration_ns), max_events=max_events)
