"""ASIC read-latency model.

The polling rate of the paper's framework is "fundamentally limited by
latency between the CPU and the ASIC" (Sec 5.1), differs per counter
("some counters are implemented in registers versus memory", Sec 4.1),
and is perturbed by "kernel interrupts and competing resource requests".
This module models that timing: a lognormal body per cost class plus a
rare heavy "interrupt" tail, with sublinear batching for multi-counter
reads.

The default parameters are calibrated so a single byte counter reproduces
Table 1:  miss rate ~100 % at 1 us, ~10 % at 10 us, ~1 % at 25 us — see
``tests/core/test_asic.py`` and the tab1 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.counters import CostClass, CounterSpec
from repro.errors import ConfigError
from repro.units import us


@dataclass(frozen=True, slots=True)
class ReadCost:
    """Lognormal latency parameters for one cost class."""

    median_ns: float
    sigma: float

    @property
    def mu(self) -> float:
        return math.log(self.median_ns)


@dataclass(frozen=True, slots=True)
class AsicTimingModel:
    """Latency model for CPU reads of ASIC counters.

    Parameters
    ----------
    register_cost / memory_cost:
        Lognormal body of a single-counter read for each cost class.
        Registers: median ~5.5 us (so a 25 us budget is met ~99 % of the
        time); memory: median ~40 us (the buffer watermark polls at
        ~50 us, Sec 4.1).
    interrupt_probability:
        Chance that a read is hit by a kernel interrupt / competing
        request, adding ``interrupt_extra_ns`` uniform extra latency.
    batch_factor:
        Sublinear group-read scaling: reading k counters together costs
        ``max(singles) + batch_factor * sum(rest)`` (Sec 4.1: "Multiple
        counters can be polled together with a sublinear increase").
    shared_core_penalty:
        Multiplier on interrupt probability when the sampler does not own
        a dedicated core (Sec 4.1's precision/utilization tradeoff).
    """

    register_cost: ReadCost = ReadCost(median_ns=us(5.0), sigma=0.42)
    memory_cost: ReadCost = ReadCost(median_ns=us(32.0), sigma=0.25)
    interrupt_probability: float = 0.004
    interrupt_extra_min_ns: int = us(15)
    interrupt_extra_max_ns: int = us(60)
    batch_factor: float = 0.30
    shared_core_penalty: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.interrupt_probability <= 1.0:
            raise ConfigError("interrupt probability must be in [0, 1]")
        if not 0.0 <= self.batch_factor <= 1.0:
            raise ConfigError("batch factor must be in [0, 1]")
        if self.interrupt_extra_min_ns > self.interrupt_extra_max_ns:
            raise ConfigError("interrupt extra range inverted")

    def _cost(self, cost_class: CostClass) -> ReadCost:
        if cost_class is CostClass.MEMORY:
            return self.memory_cost
        return self.register_cost

    # -- sampling ---------------------------------------------------------------

    def group_read_latency_ns(
        self,
        specs: list[CounterSpec],
        rng: np.random.Generator,
        dedicated_core: bool = True,
    ) -> int:
        """Latency of reading a counter group back-to-back in one poll."""
        if not specs:
            raise ConfigError("empty counter group")
        bodies = [
            rng.lognormal(self._cost(spec.cost_class).mu, self._cost(spec.cost_class).sigma)
            for spec in specs
        ]
        bodies.sort(reverse=True)
        latency = bodies[0] + self.batch_factor * sum(bodies[1:])
        p_interrupt = self.interrupt_probability
        if not dedicated_core:
            p_interrupt = min(1.0, p_interrupt * self.shared_core_penalty)
        if rng.random() < p_interrupt:
            latency += rng.uniform(self.interrupt_extra_min_ns, self.interrupt_extra_max_ns)
        return max(1, round(latency))

    def group_read_latencies_ns(
        self,
        specs: list[CounterSpec],
        n: int,
        rng: np.random.Generator,
        dedicated_core: bool = True,
    ) -> np.ndarray:
        """Vectorised draw of ``n`` group-read latencies (for Table 1 sweeps)."""
        if not specs:
            raise ConfigError("empty counter group")
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        bodies = np.stack(
            [
                rng.lognormal(
                    self._cost(spec.cost_class).mu,
                    self._cost(spec.cost_class).sigma,
                    size=n,
                )
                for spec in specs
            ]
        )
        bodies_sorted = np.sort(bodies, axis=0)[::-1]
        latency = bodies_sorted[0] + self.batch_factor * bodies_sorted[1:].sum(axis=0)
        p_interrupt = self.interrupt_probability
        if not dedicated_core:
            p_interrupt = min(1.0, p_interrupt * self.shared_core_penalty)
        hit = rng.random(n) < p_interrupt
        latency = latency + hit * rng.uniform(
            self.interrupt_extra_min_ns, self.interrupt_extra_max_ns, size=n
        )
        return np.maximum(1, np.round(latency)).astype(np.int64)

    def expected_cpu_utilization(self, specs: list[CounterSpec], interval_ns: int) -> float:
        """Approximate fraction of a core the polling loop consumes.

        Used to reason about the Sec 4.1 claim that precision can be
        traded to keep utilization at or under ~20 %.
        """
        if interval_ns <= 0:
            raise ConfigError("interval must be positive")
        # lognormal mean = median * exp(sigma^2 / 2); sigma per class
        means = []
        for spec in specs:
            cost = self._cost(spec.cost_class)
            means.append(cost.median_ns * math.exp(cost.sigma**2 / 2.0))
        means.sort(reverse=True)
        expected = means[0] + self.batch_factor * sum(means[1:])
        return min(1.0, expected / interval_ns)
