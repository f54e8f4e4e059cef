"""Parallel sharded campaign execution.

The paper's measurement plane polls 30 ToR switches *concurrently* for 24
hours; this module gives the campaign runner the same shape.  A
:class:`~repro.core.campaign.CampaignPlan` is sharded by rack — a
deterministic layout that depends only on the plan, never on the worker
count — and each shard is executed by a full
:class:`~repro.core.campaign.MeasurementCampaign` (its retry and
JSONL-checkpoint machinery, unchanged) inside a ``ProcessPoolExecutor``
worker.  Shard results are merged back in plan order.
:class:`ParallelCampaign` is the package's one campaign driver: a serial
run is ``workers=1``, which takes the same shard/merge path in-process.

Determinism contract
--------------------
Serial and parallel runs produce **byte-identical** traces because no
randomness depends on execution order: window sources derive their
per-window stream from ``(campaign_seed, rack_id, window_idx)`` and
fault injectors from ``(plan_seed, site)`` (see
:mod:`repro.core.seeding`).  Sources are pickled to workers, so any
mutable source state is shard-local; a conforming source must therefore
key *all* randomness by window identity.  The golden test
``tests/integration/test_parallel_determinism.py`` holds this contract
at 1, 2, and 4 workers, under fault injection, and across
checkpoint/resume.

Checkpoint layout
-----------------
``checkpoint_dir/shards.json`` records the sharding layout and plan
digest; ``checkpoint_dir/shard_NNN/`` holds each shard's ordinary
campaign checkpoint (manifest + per-window archives).  Because the
layout is worker-count-invariant, a campaign checkpointed at one worker
count resumes correctly at any other.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from repro.core.campaign import (
    CampaignPlan,
    CampaignResult,
    CampaignWindow,
    MeasurementCampaign,
    Reduction,
    RetryPolicy,
    WindowOutcome,
    WindowSource,
)
from repro.errors import CollectionError, ConfigError
from repro.obs import get_logger
from repro.telemetry.metrics import get_registry, scoped_registry
from repro.telemetry.spans import span

_log = get_logger("parallel")

#: Version of the ``shards.json`` layout header.
_LAYOUT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Shard:
    """One unit of parallel work: a slice of the plan's windows.

    ``indices`` are global window indices into ``plan.windows``,
    ascending, so the merge step is a plain scatter.
    """

    shard_id: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def shard_plan(plan: CampaignPlan) -> tuple[Shard, ...]:
    """Deterministic per-rack sharding of a campaign plan.

    One shard per rack, racks in order of first appearance, each rack's
    windows in plan order — the paper's one-poller-per-ToR discipline.
    The layout depends only on the plan — never on worker count — which
    is what makes checkpoints portable across worker counts.
    """
    by_rack: dict[str, list[int]] = {}
    for index, window in enumerate(plan.windows):
        by_rack.setdefault(window.rack_id, []).append(index)
    return tuple(
        Shard(shard_id=shard_id, indices=tuple(indices))
        for shard_id, indices in enumerate(by_rack.values())
    )


def _collect_shard(
    windows: tuple[CampaignWindow, ...],
    backend: WindowSource,
    retry: RetryPolicy | None,
    checkpoint_dir: str | None,
    resume: bool,
    reduce: Reduction | None,
) -> tuple[list[WindowOutcome], list, dict]:
    """Run one shard as an ordinary resilient campaign (worker entry point).

    Module-level so it pickles; the ``backend`` argument arrives as a
    process-local copy in pool workers, which is exactly what keeps
    mutable backend state (retry attempt counters) shard-local and
    order-independent.  With a ``reduce`` the shard returns each
    window's product, not its traces, so a worker ships back only what
    the caller keeps.

    Telemetry runs inside :func:`~repro.telemetry.scoped_registry`, so
    the returned snapshot holds exactly this shard's increments —
    nothing inherited from a forked parent — and the caller merges
    snapshots at join.  Serial (in-process) shards take the same path,
    which is what makes serial and ``--workers N`` aggregates agree.
    """
    subplan = CampaignPlan(windows=windows)
    campaign = MeasurementCampaign(
        subplan, backend, retry=retry, checkpoint_dir=checkpoint_dir, reduce=reduce
    )
    with scoped_registry() as registry:
        result = campaign.run(resume=resume)
        snapshot = registry.snapshot()
    return result.outcomes, result.traces, snapshot


class ParallelCampaign:
    """Executes a campaign plan across process workers, deterministically.

    Parameters
    ----------
    plan / backend:
        As for :class:`~repro.core.campaign.MeasurementCampaign`.  With
        ``workers > 1`` the backend must be picklable and must derive all
        randomness from window identity (see module docstring).
    retry:
        Per-window retry policy, applied inside every shard.
    checkpoint_dir:
        Root of the sharded checkpoint layout (see module docstring).
    workers:
        Process count.  ``1`` runs the shards sequentially in-process
        (no pickling requirement) but keeps the identical shard/merge
        path and checkpoint layout, so results and checkpoints match the
        multi-worker run byte for byte.
    reduce:
        Per-window :data:`~repro.core.campaign.Reduction`, applied inside
        every shard; the result then holds its products.  With
        ``workers > 1`` it must pickle (a module-level function, or a
        ``functools.partial`` of one).

    Telemetry recorded inside every shard — including the ``faults.*``
    counters of a fault-injecting source — is merged into the ambient
    registry at join, so it is the same serial and sharded.
    """

    def __init__(
        self,
        plan: CampaignPlan,
        backend: WindowSource,
        retry: RetryPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
        workers: int = 1,
        reduce: Reduction | None = None,
    ) -> None:
        if workers <= 0:
            raise ConfigError(f"workers must be positive, got {workers}")
        self.plan = plan
        self.backend = backend
        self.retry = retry
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.workers = workers
        self.reduce = reduce
        self.shards = shard_plan(plan)

    # -- checkpoint layout -------------------------------------------------------

    @property
    def _layout_path(self) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / "shards.json"

    def _shard_dir(self, shard: Shard) -> str | None:
        if self.checkpoint_dir is None:
            return None
        return str(self.checkpoint_dir / f"shard_{shard.shard_id:03d}")

    def _layout_record(self) -> dict:
        return {
            "version": _LAYOUT_VERSION,
            "plan_digest": self.plan.digest(),
            "n_shards": len(self.shards),
            "shard_sizes": [len(shard) for shard in self.shards],
        }

    def _prepare_checkpoint(self, resume: bool) -> None:
        if self.checkpoint_dir is None:
            return
        record = self._layout_record()
        if resume and self._layout_path.exists():
            existing = json.loads(self._layout_path.read_text())
            for key in ("plan_digest", "n_shards", "shard_sizes"):
                if existing.get(key) != record[key]:
                    raise CollectionError(
                        f"checkpoint at {self.checkpoint_dir} was written with a "
                        f"different {key} ({existing.get(key)} != {record[key]}); "
                        "refusing to resume across a sharding-layout change"
                    )
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._layout_path.write_text(json.dumps(record, indent=2) + "\n")

    # -- execution ---------------------------------------------------------------

    def _shard_args(self, shard: Shard, resume: bool) -> tuple:
        windows = tuple(self.plan.windows[i] for i in shard.indices)
        return (
            windows, self.backend, self.retry, self._shard_dir(shard), resume, self.reduce
        )

    def run(self, resume: bool = False) -> CampaignResult:
        """Collect every shard and merge results back into plan order.

        The merged :class:`CampaignResult` is indistinguishable from a
        serial :meth:`MeasurementCampaign.run` of the same plan — same
        traces, same per-window outcomes — for any conforming source.
        """
        self._prepare_checkpoint(resume)
        _log.debug(
            "collecting %d windows in %d shards across %d workers",
            len(self.plan.windows), len(self.shards), self.workers,
        )
        results: dict[int, tuple] = {}
        with span(
            "parallel.run",
            n_windows=len(self.plan.windows),
            n_shards=len(self.shards),
            workers=self.workers,
        ):
            if self.workers == 1 or len(self.shards) <= 1:
                for shard in self.shards:
                    results[shard.shard_id] = _collect_shard(
                        *self._shard_args(shard, resume)
                    )
            else:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(self.shards))
                ) as pool:
                    futures = {
                        pool.submit(
                            _collect_shard, *self._shard_args(shard, resume)
                        ): shard
                        for shard in self.shards
                    }
                    for future in as_completed(futures):
                        results[futures[future].shard_id] = future.result()
            self._merge_telemetry(results)
        return self._merge(results)

    def _merge_telemetry(self, results: dict[int, tuple]) -> None:
        """Fold every shard's telemetry snapshot into the ambient registry.

        Merging is commutative, but shards fold in shard-id order anyway
        so any future order-sensitive consumer sees a stable sequence.
        """
        registry = get_registry()
        registry.counter("parallel.shards_completed").inc(len(results))
        for shard_id in sorted(results):
            registry.merge_snapshot(results[shard_id][2])

    def _merge(self, results: dict[int, tuple]) -> CampaignResult:
        n = len(self.plan.windows)
        outcomes: list[WindowOutcome | None] = [None] * n
        traces: list = [None] * n
        for shard in self.shards:
            shard_outcomes, shard_traces, _ = results[shard.shard_id]
            for local, global_index in enumerate(shard.indices):
                outcome = shard_outcomes[local]
                outcomes[global_index] = WindowOutcome(
                    index=global_index,
                    window=outcome.window,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
                traces[global_index] = shard_traces[local]
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise CollectionError(
                f"shard merge left {len(missing)} windows uncovered "
                f"(first: {missing[:5]}) — sharding must partition the plan"
            )
        return CampaignResult(plan=self.plan, traces=traces, outcomes=outcomes)
