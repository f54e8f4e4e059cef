"""Workload base class."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.netsim.topology import Rack


@dataclass(slots=True)
class WorkloadStats:
    """Application-level accounting, independent of switch counters."""

    requests_issued: int = 0
    requests_completed: int = 0


class Workload(ABC):
    """A traffic pattern installed onto a rack.

    Workloads schedule application events (requests, shuffles) on the
    rack's servers and remote hosts; the transport and switch take it
    from there.  ``install`` must be called before the simulation runs.
    """

    def __init__(self, rack: Rack, rng: np.random.Generator | int | None = None) -> None:
        self.rack = rack
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.stats = WorkloadStats()
        self._installed = False

    def install(self, until_ns: int | None = None) -> None:
        """Arm the workload's event sources (idempotent guard)."""
        if self._installed:
            return
        self._installed = True
        self._install(until_ns)

    @abstractmethod
    def _install(self, until_ns: int | None) -> None:
        """Subclass hook: schedule the first events."""
