"""Deterministic, seedable fault injection for chaos runs.

The paper's measurement framework is explicitly best-effort: the polling
loop misses instants under load (Table 1) and the analysis is built so
"timestamps survive misses".  This package makes that degradation — plus
the failure modes production telemetry actually sees (collection RPC
failures, 32-bit counter wraparound, switch-CPU contention, collector
backpressure, storage corruption) — injectable on demand, driven by an
explicit numpy RNG so every chaos run replays exactly.

Usage sketch::

    plan = FaultPlan(seed=7, window_failure_rate=0.05, wrap_bits=32)
    injector = FaultInjector(plan)
    backend = FaultyWindowSource(resolve_backend("synth", seed=0), injector)
    result = ParallelCampaign(campaign_plan, backend, retry=RetryPolicy()).run()

``FaultyWindowSource`` wraps *any* measurement backend — synth, netsim,
or another wrapper — because it only relies on the ``sample_window``
protocol the campaign itself consumes.
"""

from repro.faults.injector import (
    COUNTER_BITS_META,
    FaultInjector,
    FaultStats,
    FaultyTimingModel,
)
from repro.faults.plan import DROP_POLICIES, FaultPlan
from repro.faults.sources import FaultyWindowSource, window_site

__all__ = [
    "COUNTER_BITS_META",
    "DROP_POLICIES",
    "FaultInjector",
    "FaultStats",
    "FaultyTimingModel",
    "FaultyWindowSource",
    "FaultPlan",
    "window_site",
]
