"""High-resolution counter collection framework.

This is the paper's primary contribution: a polling framework that reads
switch ASIC counters every 10s-to-100s of microseconds from the switch
CPU, tolerating best-effort timing (missed intervals keep correct
timestamps and cumulative values), and writing each counter's trace.

The framework is hardware-agnostic: it polls anything exposing the
counter-surface protocol — the packet-level simulator's
:class:`repro.netsim.tracing.SwitchCounterSurface` or the synthetic
campaign generator.
"""

from repro.core.samples import CounterTrace, ValueKind
from repro.core.counters import CounterBinding, CounterKind, CostClass, CounterSpec
from repro.core.asic import AsicTimingModel, ReadCost
from repro.core.sampler import HighResSampler, SamplerConfig, SamplerReport, TimingStats
from repro.core.campaign import (
    CampaignPlan,
    CampaignResult,
    CampaignWindow,
    MeasurementCampaign,
    RetryPolicy,
    WindowOutcome,
    WindowStatus,
)
from repro.core.parallel import ParallelCampaign, Shard, shard_plan
from repro.core.seeding import site_rng, stable_site_key, window_rng

__all__ = [
    "CounterTrace",
    "ValueKind",
    "CounterBinding",
    "CounterKind",
    "CostClass",
    "CounterSpec",
    "AsicTimingModel",
    "ReadCost",
    "HighResSampler",
    "SamplerConfig",
    "SamplerReport",
    "TimingStats",
    "CampaignPlan",
    "CampaignResult",
    "CampaignWindow",
    "MeasurementCampaign",
    "RetryPolicy",
    "WindowOutcome",
    "WindowStatus",
    "ParallelCampaign",
    "Shard",
    "shard_plan",
    "site_rng",
    "stable_site_key",
    "window_rng",
]
