"""Fault plan and injector tests: determinism is the whole point."""

import numpy as np
import pytest

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import CollectionError, FaultInjectionError
from repro.faults import (
    COUNTER_BITS_META,
    FaultInjector,
    FaultPlan,
    FaultyWindowSource,
    window_site,
)
from repro.telemetry.metrics import scoped_registry
from repro.units import gbps, us


@pytest.fixture
def registry():
    """Fresh registry, so ``faults.*`` counters count this test only."""
    with scoped_registry() as reg:
        yield reg


def fault_counts(registry):
    counters = registry.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("faults.")}


def byte_trace(n=64, step=5000, name="down0.tx_bytes"):
    values = np.arange(n, dtype=np.int64) * step
    return CounterTrace.regular(
        us(25), values, ValueKind.CUMULATIVE, name=name, rate_bps=gbps(10)
    )


class TestFaultPlan:
    def test_default_plan_is_noop(self, registry):
        injector = FaultInjector(FaultPlan())
        trace = byte_trace(n=400)
        assert injector.degrade_trace(trace, "s") is trace
        assert not any(injector.should_fail_window(f"s{i}", 0) for i in range(100))
        assert fault_counts(registry) == {}

    def test_any_rate_clears_noop(self):
        trace = byte_trace(n=400, step=300_000)
        lossy = FaultInjector(FaultPlan(sample_loss_rate=0.5))
        assert len(lossy.degrade_trace(trace, "s")) < len(trace)
        wrapping = FaultInjector(FaultPlan(wrap_bits=20))
        assert wrapping.degrade_trace(trace, "s") is not trace
        failing = FaultInjector(FaultPlan(window_failure_rate=1.0))
        assert failing.should_fail_window("s", 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_failure_rate": -0.1},
            {"window_failure_rate": 1.5},
            {"window_failure_rate": float("nan")},
            {"transient_fraction": -0.5},
            {"transient_fraction": 2.0},
            {"transient_fraction": float("nan")},
            {"sample_loss_rate": -0.01},
            {"sample_loss_rate": 1.01},
            {"sample_loss_rate": float("nan")},
            {"wrap_bits": 0},
            {"wrap_bits": 65},
            {"wrap_bits": -1},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)


class TestDeterminism:
    def test_site_keyed_rng_is_stable(self):
        injector = FaultInjector(FaultPlan(seed=9))
        a = injector.rng_for("web-rack0|3|down1").random(8)
        b = injector.rng_for("web-rack0|3|down1").random(8)
        assert np.array_equal(a, b)

    def test_sites_are_independent(self):
        injector = FaultInjector(FaultPlan(seed=9))
        a = injector.rng_for("site-a").random(8)
        b = injector.rng_for("site-b").random(8)
        assert not np.array_equal(a, b)

    def test_decisions_independent_of_call_order(self):
        plan = FaultPlan(seed=4, window_failure_rate=0.5, transient_fraction=0.5)
        sites = [f"rack{i}|0|down0" for i in range(40)]
        forward = [FaultInjector(plan).should_fail_window(s, 0) for s in sites]
        backward = [
            FaultInjector(plan).should_fail_window(s, 0) for s in reversed(sites)
        ]
        assert forward == list(reversed(backward))


class TestWindowFaults:
    def failing_site(self, injector, transient):
        """Find a site classified as faulty with the wanted persistence."""
        for i in range(500):
            site = f"probe{i}"
            if injector.should_fail_window(site, 0):
                # Persistent sites also fail attempt 1; transients clear.
                if injector.should_fail_window(site, 1) is (not transient):
                    return site
        raise AssertionError("no site with the requested fault class found")

    def test_transient_clears_on_retry(self):
        injector = FaultInjector(
            FaultPlan(seed=2, window_failure_rate=0.5, transient_fraction=1.0)
        )
        site = self.failing_site(injector, transient=True)
        assert injector.should_fail_window(site, 0)
        assert not injector.should_fail_window(site, 1)
        assert not injector.should_fail_window(site, 5)

    def test_persistent_fails_every_attempt(self):
        injector = FaultInjector(
            FaultPlan(seed=2, window_failure_rate=0.5, transient_fraction=0.0)
        )
        site = self.failing_site(injector, transient=False)
        for attempt in range(4):
            assert injector.should_fail_window(site, attempt)

    def test_zero_rate_never_fails(self, registry):
        injector = FaultInjector(FaultPlan(seed=0))
        assert not any(
            injector.should_fail_window(f"s{i}", 0) for i in range(100)
        )
        assert "faults.window_faults" not in fault_counts(registry)

    def test_negative_attempt_rejected(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(FaultInjectionError):
            injector.should_fail_window("s", -1)

    def test_stats_count_first_attempt_only(self, registry):
        injector = FaultInjector(
            FaultPlan(seed=2, window_failure_rate=1.0, transient_fraction=0.0)
        )
        for attempt in range(3):
            injector.should_fail_window("one-site", attempt)
        assert fault_counts(registry) == {
            "faults.persistent_faults": 1,
            "faults.window_faults": 1,
        }


class TestTraceFaults:
    def test_wrap_records_width_and_deltas_correct_exactly(self):
        # Steps below 2^20 but a total far above it: many wrap events,
        # every one correctable because no single delta spans a period.
        trace = byte_trace(n=200, step=300_000)
        injector = FaultInjector(FaultPlan(wrap_bits=20))
        wrapped = injector.wrap_trace(trace)
        assert wrapped.meta[COUNTER_BITS_META] == 20
        assert np.all(np.asarray(wrapped.values) < (1 << 20))
        # Exact correction: wrapped deltas equal the true deltas everywhere.
        assert np.array_equal(wrapped.deltas(), trace.deltas())

    def test_wrap_32bit_residual_zero(self):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.integers(0, 10_000_000, size=2000)).astype(np.int64)
        trace = CounterTrace.regular(
            us(25), values, ValueKind.CUMULATIVE, name="t", rate_bps=gbps(100)
        )
        wrapped = FaultInjector(FaultPlan(wrap_bits=32)).wrap_trace(trace)
        assert np.array_equal(wrapped.deltas(), trace.deltas())

    def test_gauge_traces_never_wrapped(self):
        gauge = CounterTrace.regular(
            us(25), np.arange(10, dtype=np.int64), ValueKind.GAUGE, name="g"
        )
        out = FaultInjector(FaultPlan(wrap_bits=8)).wrap_trace(gauge)
        assert out is gauge

    def test_drop_samples_keeps_endpoints_and_counts(self, registry):
        trace = byte_trace(n=400)
        injector = FaultInjector(FaultPlan(seed=3, sample_loss_rate=0.3))
        degraded = injector.drop_samples(trace, "w|p")
        assert degraded.timestamps_ns[0] == trace.timestamps_ns[0]
        assert degraded.timestamps_ns[-1] == trace.timestamps_ns[-1]
        dropped = len(trace) - len(degraded)
        assert dropped > 0
        assert degraded.meta["samples_dropped"] == dropped
        assert fault_counts(registry) == {"faults.samples_dropped": dropped}
        # Survivors keep true timestamps and exact cumulative values.
        assert set(degraded.timestamps_ns).issubset(set(trace.timestamps_ns))
        assert int(degraded.deltas().sum()) == int(trace.deltas().sum())

    def test_degrade_is_deterministic_per_site(self):
        trace = byte_trace(n=300)
        plan = FaultPlan(seed=5, sample_loss_rate=0.2, wrap_bits=32)
        a = FaultInjector(plan).degrade_trace(trace, "site-x")
        b = FaultInjector(plan).degrade_trace(trace, "site-x")
        assert np.array_equal(a.timestamps_ns, b.timestamps_ns)
        assert np.array_equal(a.values, b.values)


class FixedSource:
    """Window source returning a deterministic trace per window."""

    def __init__(self):
        self.calls = 0

    def sample_window(self, window):
        self.calls += 1
        trace = byte_trace(name=f"{window.port_name}.tx_bytes")
        return {trace.name: trace}


def make_window(rack="web-rack0", hour=0, port="down0"):
    from repro.core.campaign import CampaignWindow

    return CampaignWindow(
        rack_id=rack,
        rack_type="web",
        port_name=port,
        hour=hour,
        start_ns=0,
        duration_ns=us(25) * 64,
    )


class TestFaultyWindowSource:
    def find_failing_window(self, injector):
        for hour in range(200):
            window = make_window(hour=hour)
            if injector.should_fail_window(window_site(window), 0):
                return window
        raise AssertionError("no failing window found")

    def test_injected_failure_raises_collection_error(self):
        injector = FaultInjector(
            FaultPlan(seed=7, window_failure_rate=0.5, transient_fraction=1.0)
        )
        window = self.find_failing_window(injector)
        source = FaultyWindowSource(FixedSource(), injector)
        with pytest.raises(CollectionError):
            source.sample_window(window)
        # Transient: the retry (attempt 1) succeeds.
        traces = source.sample_window(window)
        assert traces
        assert source.attempts_for(window) == 2

    def test_degradation_keyed_by_window_not_attempt(self):
        """A retried window must yield byte-identical traces."""
        plan = FaultPlan(seed=7, sample_loss_rate=0.25)
        window = make_window()
        first = FaultyWindowSource(FixedSource(), FaultInjector(plan)).sample_window(
            window
        )
        again = FaultyWindowSource(FixedSource(), FaultInjector(plan))
        again._attempts[window_site(window)] = 3  # pretend earlier attempts happened
        second = again.sample_window(window)
        for name in first:
            assert np.array_equal(
                first[name].timestamps_ns, second[name].timestamps_ns
            )
            assert np.array_equal(first[name].values, second[name].values)

    def test_noop_plan_passes_traces_through(self):
        source = FaultyWindowSource(FixedSource(), FaultInjector(FaultPlan()))
        traces = source.sample_window(make_window())
        assert list(traces) == ["down0.tx_bytes"]
        assert "samples_dropped" not in traces["down0.tx_bytes"].meta
