"""Declarative fault plans.

A :class:`FaultPlan` describes *what* can go wrong in a chaos run and how
often, in the vocabulary of the paper's own failure modes: the polling
loop "misses" instants under load (Table 1), ASIC counters are 32-bit
registers that wrap, and a collection RPC can fail outright.  Plans are
plain frozen data so a chaos run is fully described by (plan, seed) and
can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultInjectionError


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Rates and parameters for every injectable fault class.

    Parameters
    ----------
    seed:
        Root seed of the fault stream.  Every injection decision is drawn
        from a generator keyed by ``(seed, site)`` where the site names
        the window/counter/read affected, so decisions are independent of
        call order — a resumed campaign sees exactly the faults an
        uninterrupted one would.
    window_failure_rate:
        Per-window probability that collection raises
        :class:`~repro.errors.CollectionError`.
    transient_fraction:
        Share of window failures that clear on the first retry (the rest
        are persistent and exhaust the retry budget).
    sample_loss_rate:
        Per-sample probability that an interior sample of a finished
        trace is lost (a failed read, collector backpressure, lossy
        export), leaving a gap — the paper's miss semantics.
    wrap_bits:
        When set (32 for real ASIC registers), cumulative counter values
        are wrapped to this width, exercising wrap correction downstream.
    """

    seed: int = 0
    window_failure_rate: float = 0.0
    transient_fraction: float = 1.0
    sample_loss_rate: float = 0.0
    wrap_bits: int | None = None

    def __post_init__(self) -> None:
        for name in ("window_failure_rate", "transient_fraction", "sample_loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(f"{name}={value} outside [0, 1]")
        if self.wrap_bits is not None and not 1 <= self.wrap_bits <= 64:
            raise FaultInjectionError(f"wrap_bits={self.wrap_bits} outside [1, 64]")
