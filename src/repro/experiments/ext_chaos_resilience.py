"""ext-chaos: measurement-plane resilience under injected faults.

The paper's framework is explicitly best-effort — the polling loop misses
instants under load (Table 1) and the analysis is designed so that
"timestamps survive misses".  This extension experiment quantifies that
design point: it runs a campaign through the fault injector (window
failures, retries, checkpointing) and shows that the headline Fig 3 / 6
statistics computed by the gap-aware analysis stay within a *reported*
bound as sample loss is swept up from zero, with 32-bit counter
wraparound corrected exactly.

The campaign runs through :class:`~repro.core.parallel.ParallelCampaign`
at every worker count, so ``checkpoint_dir`` always holds the sharded
layout (``shards.json`` plus one ``shard_NNN/`` per rack).  A checkpoint
in the older serial layout (a top-level ``manifest.jsonl``) is not
resumed; its windows are collected again, with the same result.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bursts import (
    burst_cdf_delta_bound,
    extract_bursts_from_trace,
    extract_bursts_gap_aware,
)
from repro.analysis.cdf import EmpiricalCdf
from repro.backends import resolve_backend
from repro.core.campaign import RetryPolicy, WindowStatus
from repro.core.parallel import ParallelCampaign
from repro.experiments.common import ExperimentResult, app_byte_traces
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.synth.dataset import default_plan
from repro.units import seconds


def _chaos_campaign(
    seed: int,
    fault_rate: float,
    checkpoint_dir: str | None,
    resume: bool,
    racks_per_app: int,
    hours: int,
    window_s: float,
    workers: int,
    backend=None,
) -> tuple[dict[str, int], float, int]:
    """Run the fault-injected campaign; return its status counts, its
    completion fraction and the number of windows a retry recovered.

    Recovered windows are read from the outcomes, not from the injector's
    tally: a resumed outcome keeps the attempts recorded in the
    checkpoint, so a resumed run reports what the uninterrupted run did.
    """
    plan = default_plan(
        racks_per_app=racks_per_app,
        hours=hours,
        window_duration_ns=seconds(window_s),
        seed=seed,
    )
    injector = FaultInjector(
        FaultPlan(
            seed=seed + 1,
            window_failure_rate=fault_rate,
            transient_fraction=0.5,
            sample_loss_rate=fault_rate / 5.0,
            wrap_bits=32,
        )
    )
    # Fault injection composes with any measurement backend: the wrapper
    # only relies on the ``sample_window`` protocol the campaign consumes.
    source = FaultyWindowSource(resolve_backend(backend, seed=seed), injector)
    retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
    result = ParallelCampaign(
        plan, source, retry=retry, checkpoint_dir=checkpoint_dir, workers=workers
    ).run(resume=resume)
    recovered = sum(
        1 for outcome in result.outcomes
        if outcome.status.has_traces and outcome.attempts > 1
    )
    return result.status_counts(), result.completion_fraction, recovered


def _degrade(traces, seed: int, loss_rate: float):
    injector = FaultInjector(
        FaultPlan(seed=seed + 17, sample_loss_rate=loss_rate, wrap_bits=32)
    )
    return [
        injector.degrade_trace(trace, f"sweep|{loss_rate}|{i}")
        for i, trace in enumerate(traces)
    ]


def run(
    seed: int = 0,
    fault_rate: float = 0.05,
    n_windows: int = 8,
    window_s: float = 2.0,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    campaign_racks_per_app: int = 2,
    campaign_hours: int = 4,
    campaign_window_s: float = 1.0,
    workers: int = 1,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-chaos",
        title="resilience: stats stable under injected measurement faults",
    )

    # -- resilient campaign under window failures -----------------------------
    counts, completion, recovered = _chaos_campaign(
        seed,
        fault_rate,
        checkpoint_dir,
        resume,
        campaign_racks_per_app,
        campaign_hours,
        campaign_window_s,
        workers,
        backend=backend,
    )
    n_planned = sum(counts.values())
    result.add("campaign windows planned", "-", n_planned)
    result.add(
        f"completion at {fault_rate:.0%} window-failure rate",
        "partial results, not a discarded campaign",
        f"{completion:.2%}",
    )
    result.add(
        "windows ok / degraded / failed",
        "failed <= persistent faults",
        f"{counts[WindowStatus.OK.value]} / {counts[WindowStatus.DEGRADED.value]}"
        f" / {counts[WindowStatus.FAILED.value]}",
    )
    result.add(
        "transient faults recovered by retry",
        "all",
        f"{recovered}",
    )

    # -- gap-tolerant Fig 3 / Fig 6 statistics --------------------------------
    clean = app_byte_traces(
        "web", seed=seed, n_windows=n_windows, window_s=window_s, backend=backend
    )
    clean_durations = np.concatenate(
        [extract_bursts_from_trace(trace).durations_ns for trace in clean]
    )
    clean_cdf = EmpiricalCdf(clean_durations.astype(np.float64))
    clean_dt = np.concatenate([t.interval_durations_ns() for t in clean])
    clean_util = np.concatenate([t.utilization() for t in clean])
    clean_mean_util = float(np.average(clean_util, weights=clean_dt))

    for loss in (fault_rate, 2 * fault_rate, 4 * fault_rate):
        loss = min(loss, 0.5)
        degraded = _degrade(clean, seed, loss)
        gap_stats = [extract_bursts_gap_aware(trace) for trace in degraded]
        durations = np.concatenate([g.durations_ns for g in gap_stats])
        cdf = EmpiricalCdf(durations.astype(np.float64))
        ks = clean_cdf.ks_distance(cdf)
        # Pool the per-trace bound components for one campaign-level bound.
        n_clipped = sum(g.n_clipped_bursts for g in gap_stats)
        bound = burst_cdf_delta_bound(len(durations), n_clipped)
        coverage = float(np.mean([g.coverage for g in gap_stats]))
        result.add(
            f"fig3 burst-CDF shift @ {loss:.0%} sample loss",
            f"<= reported bound {bound:.3f}",
            f"{ks:.3f} (coverage {coverage:.2%})",
        )
        dt = np.concatenate([t.interval_durations_ns() for t in degraded])
        util = np.concatenate([t.utilization() for t in degraded])
        mean_util = float(np.average(util, weights=dt))
        result.add(
            f"fig6 time-weighted mean util @ {loss:.0%} loss",
            f"{clean_mean_util:.4f} (clean)",
            f"{mean_util:.4f}",
        )

    # -- exact wraparound correction ------------------------------------------
    wrap_injector = FaultInjector(FaultPlan(seed=seed + 33, wrap_bits=32))
    residual = 0
    for trace in clean:
        wrapped = wrap_injector.wrap_trace(trace)
        residual += abs(int(trace.deltas().sum()) - int(wrapped.deltas().sum()))
    result.add("32-bit wraparound residual (bytes)", 0, residual)

    result.notes.append(
        "sample loss keeps true timestamps and cumulative values (the paper's "
        "miss semantics); gap-aware analysis splits traces at gaps so bursts "
        "never span missing data, and reports a worst-case CDF shift bound"
    )
    result.notes.append(
        "time-weighted mean utilization is exact under loss because byte "
        "counts survive misses (Table 1)"
    )
    return result
