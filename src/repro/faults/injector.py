"""Deterministic fault injection.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete injection decisions.  Every decision is drawn from a numpy
generator seeded by ``(plan.seed, crc32(site))`` where the *site* names
the affected window or counter — never from shared mutable RNG
state — so the same plan produces the same faults regardless of call
order, retries, or checkpoint/resume.
"""

from __future__ import annotations

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.core.seeding import site_rng
from repro.errors import FaultInjectionError
from repro.faults.plan import FaultPlan
from repro.telemetry.metrics import get_registry

#: Meta key carrying the wrap width of a raw (possibly wrapped) counter.
COUNTER_BITS_META = "counter_bits"


class FaultInjector:
    """Executes a fault plan with order-independent determinism."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def _tally(self, kind: str, amount: int = 1) -> None:
        """Count one injection as ``faults.<kind>`` in the telemetry registry."""
        get_registry().counter(f"faults.{kind}").inc(amount)

    # -- keyed randomness --------------------------------------------------------

    def rng_for(self, site: str) -> np.random.Generator:
        """Fresh generator for one injection site (stable across runs)."""
        return site_rng(self.plan.seed, site)

    # -- window-level faults -----------------------------------------------------

    def should_fail_window(self, site: str, attempt: int) -> bool:
        """Whether collection attempt ``attempt`` (0-based) of the window
        named by ``site`` fails.

        A faulty window is either *transient* (fails attempt 0 only) or
        *persistent* (fails every attempt), split by the plan's
        ``transient_fraction``.  The classification depends only on the
        site, so retries and resumed runs replay identical behaviour.
        """
        if attempt < 0:
            raise FaultInjectionError(f"attempt must be >= 0, got {attempt}")
        rng = self.rng_for(f"window|{site}")
        if rng.random() >= self.plan.window_failure_rate:
            return False
        transient = rng.random() < self.plan.transient_fraction
        if attempt == 0:
            self._tally("window_faults")
            if transient:
                self._tally("transient_faults")
            else:
                self._tally("persistent_faults")
        return True if not transient else attempt == 0

    # -- trace-level faults ------------------------------------------------------

    def wrap_trace(self, trace: CounterTrace) -> CounterTrace:
        """Wrap a cumulative counter to ``wrap_bits`` (e.g. a 32-bit ASIC
        register), recording the width in the trace meta so analysis can
        correct the deltas exactly."""
        bits = self.plan.wrap_bits
        if bits is None or trace.kind is not ValueKind.CUMULATIVE:
            return trace
        modulus = np.int64(1) << bits if bits < 63 else None
        if modulus is None:
            return trace
        values = np.asarray(trace.values)
        wrapped = np.mod(values, modulus)
        meta = dict(trace.meta)
        meta[COUNTER_BITS_META] = bits
        self._tally("traces_wrapped")
        return CounterTrace(
            timestamps_ns=trace.timestamps_ns,
            values=wrapped,
            kind=trace.kind,
            name=trace.name,
            rate_bps=trace.rate_bps,
            meta=meta,
        )

    def drop_samples(self, trace: CounterTrace, site: str) -> CounterTrace:
        """Lose interior samples at ``sample_loss_rate``.

        The first and last samples always survive so the window span is
        preserved; what remains keeps true timestamps and cumulative
        values — exactly the paper's "timestamps survive misses"
        degradation, just injected after the fact.
        """
        rate = self.plan.sample_loss_rate
        if rate == 0.0 or len(trace) <= 2:
            return trace
        keep = self.rng_for(f"loss|{site}").random(len(trace)) >= rate
        keep[0] = True
        keep[-1] = True
        dropped = int((~keep).sum())
        if dropped == 0:
            return trace
        self._tally("samples_dropped", dropped)
        meta = dict(trace.meta)
        meta["samples_dropped"] = meta.get("samples_dropped", 0) + dropped
        return CounterTrace(
            timestamps_ns=trace.timestamps_ns[keep],
            values=np.asarray(trace.values)[keep],
            kind=trace.kind,
            name=trace.name,
            rate_bps=trace.rate_bps,
            meta=meta,
        )

    def degrade_trace(self, trace: CounterTrace, site: str) -> CounterTrace:
        """Apply all trace-level faults (loss then wraparound)."""
        return self.wrap_trace(self.drop_samples(trace, site))
