"""High-resolution sampler tests (Table 1 behaviour)."""

import numpy as np
import pytest

from repro.core import HighResSampler, SamplerConfig
from repro.core.counters import CounterBinding, CounterKind, CounterSpec
from repro.core.samples import ValueKind
from repro.errors import ConfigError, CounterError, SamplingError
from repro.netsim import Simulator
from repro.units import ms, seconds, us


def byte_binding(read=lambda: 0, name="p.tx_bytes"):
    spec = CounterSpec(name=name, kind=CounterKind.BYTE, rate_bps=10e9)
    return CounterBinding(spec=spec, read=read)


class TestTimingOnly:
    def test_table1_miss_rates(self):
        """The headline Table 1 reproduction."""
        expectations = {us(1): (0.95, 1.0), us(10): (0.05, 0.18), us(25): (0.003, 0.03)}
        for interval, (low, high) in expectations.items():
            sampler = HighResSampler(
                SamplerConfig(interval_ns=interval), [byte_binding()], rng=7
            )
            stats = sampler.simulate_timing(seconds(1))
            assert low <= stats.miss_rate <= high, f"interval {interval}"

    def test_miss_rate_monotone_in_interval(self):
        rates = []
        for interval in (us(5), us(10), us(20), us(40)):
            sampler = HighResSampler(
                SamplerConfig(interval_ns=interval), [byte_binding()], rng=3
            )
            rates.append(sampler.simulate_timing(seconds(0.5)).miss_rate)
        assert rates == sorted(rates, reverse=True)

    def test_deterministic_for_seed(self):
        def miss(seed):
            sampler = HighResSampler(
                SamplerConfig(interval_ns=us(10)), [byte_binding()], rng=seed
            )
            return sampler.simulate_timing(seconds(0.2)).miss_rate

        assert miss(5) == miss(5)

    def test_duration_too_short_rejected(self):
        sampler = HighResSampler(SamplerConfig(interval_ns=us(25)), [byte_binding()])
        with pytest.raises(SamplingError):
            sampler.simulate_timing(us(10))

    def test_negative_duration_rejected(self):
        sampler = HighResSampler(SamplerConfig(interval_ns=us(25)), [byte_binding()])
        with pytest.raises(ConfigError):
            sampler.simulate_timing(0)

    def test_scheduled_counts_cover_duration(self):
        sampler = HighResSampler(SamplerConfig(interval_ns=us(25)), [byte_binding()], rng=1)
        stats = sampler.simulate_timing(seconds(1))
        assert stats.scheduled == 40_000
        assert stats.taken <= stats.scheduled


class TestLiveMode:
    def test_samples_read_live_counter(self):
        sim = Simulator(seed=1)
        counter = {"value": 0}
        sim.schedule(0, lambda: None)

        def tick():
            counter["value"] += 3125  # bytes per us at 25 Gbps... arbitrary ramp
            sim.schedule(us(1), tick)

        sim.schedule(us(1), tick)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=us(25)),
            [byte_binding(read=lambda: counter["value"])],
            rng=2,
        )
        report = sampler.run_in_sim(sim, ms(5))
        trace = report.traces["p.tx_bytes"]
        assert len(trace) > 150
        # cumulative & monotone
        assert np.all(np.diff(trace.values) >= 0)
        # timestamps strictly increasing, close to 25 us apart typically
        gaps = np.diff(trace.timestamps_ns)
        assert np.median(gaps) == pytest.approx(us(25), rel=0.2)

    def test_miss_preserves_totals(self):
        """Bytes are never lost across missed intervals."""
        sim = Simulator(seed=1)
        counter = {"value": 0}

        def tick():
            counter["value"] += 100
            sim.schedule(us(5), tick)

        sim.schedule(us(5), tick)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=us(25)),
            [byte_binding(read=lambda: counter["value"])],
            rng=4,
        )
        report = sampler.run_in_sim(sim, ms(20))
        trace = report.traces["p.tx_bytes"]
        assert trace.deltas().sum() == trace.values[-1] - trace.values[0]

    def test_multi_counter_group_polled_together(self):
        sim = Simulator(seed=1)
        bindings = [
            byte_binding(name="a.tx_bytes"),
            byte_binding(name="b.tx_bytes"),
        ]
        sampler = HighResSampler(SamplerConfig(interval_ns=us(50)), bindings, rng=2)
        report = sampler.run_in_sim(sim, ms(5))
        a = report.traces["a.tx_bytes"]
        b = report.traces["b.tx_bytes"]
        assert np.array_equal(a.timestamps_ns, b.timestamps_ns)


class ScriptedTiming:
    """Timing model replaying a fixed latency sequence (cycled)."""

    def __init__(self, latencies):
        self.latencies = [int(x) for x in latencies]
        self._next = 0

    def _take(self, n):
        out = [
            self.latencies[(self._next + k) % len(self.latencies)] for k in range(n)
        ]
        self._next += n
        return out

    def group_read_latency_ns(self, specs, rng, dedicated_core=True):
        return self._take(1)[0]

    def group_read_latencies_ns(self, specs, n, rng, dedicated_core=True):
        return np.asarray(self._take(n), dtype=np.int64)


def scripted_sampler(latencies, interval_ns=us(25), bindings=None):
    return HighResSampler(
        SamplerConfig(interval_ns=interval_ns, timing=ScriptedTiming(latencies)),
        bindings or [byte_binding()],
        rng=0,
    )


def ramp(step, width=None):
    """A read function returning ``0, step, 2 * step, ...`` (a tuple of
    ``width`` bins when ``width`` is set)."""
    reads = {"n": 0}

    def read():
        value = reads["n"] * step
        reads["n"] += 1
        return value if width is None else tuple(value + k for k in range(width))

    return read


class TestTraces:
    """Each completed read lands in every binding's trace."""

    def test_traces_built_with_values_and_kind(self):
        sampler = scripted_sampler([us(25)], bindings=[byte_binding(read=ramp(100))])
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 5)
        trace = report.traces["p.tx_bytes"]
        assert trace.name == "p.tx_bytes"
        assert trace.kind is ValueKind.CUMULATIVE
        assert trace.rate_bps == 10e9
        assert list(trace.values) == [0, 100, 200, 300, 400]
        assert trace.values.dtype == np.int64
        assert list(trace.timestamps_ns) == [us(25) * k for k in range(1, 6)]

    def test_gauge_trace_kind(self):
        spec = CounterSpec("buf", CounterKind.PEAK_BUFFER)
        sampler = scripted_sampler([us(25)], bindings=[CounterBinding(spec, ramp(123))])
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 2)
        assert report.traces["buf"].kind is ValueKind.GAUGE

    def test_histogram_values_are_two_dimensional(self):
        spec = CounterSpec("hist", CounterKind.PACKET_SIZE_HIST)
        sampler = scripted_sampler([us(25)], bindings=[CounterBinding(spec, ramp(1, width=3))])
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 2)
        assert report.traces["hist"].values.shape == (2, 3)
        assert report.traces["hist"].values.tolist() == [[0, 1, 2], [1, 2, 3]]

    def test_sample_count_is_completed_reads(self):
        bindings = [byte_binding(name="a.tx_bytes"), byte_binding(name="b.tx_bytes")]
        sampler = scripted_sampler([us(10)], bindings=bindings)
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 10)
        assert report.timing.taken == 10
        assert len(report.traces["a.tx_bytes"]) == len(report.traces["b.tx_bytes"]) == 10

    def test_clean_trace_has_no_drop_marker(self):
        # Sample loss is marked by the fault injector, never by the sampler.
        report = scripted_sampler([us(25)]).run_in_sim(Simulator(seed=0), us(25) * 4)
        assert "samples_dropped" not in report.traces["p.tx_bytes"].meta


class TestEdgeCases:
    def test_overrun_clamp(self):
        from repro.core.sampler import overrun_covered_instants

        assert overrun_covered_instants(us(25), us(25), 100) == 1
        assert overrun_covered_instants(us(26), us(25), 100) == 2
        assert overrun_covered_instants(us(100), us(25), 100) == 4
        # Clamped at the window boundary, never below one instant.
        assert overrun_covered_instants(us(100), us(25), 2) == 2
        assert overrun_covered_instants(us(100), us(25), 0) == 1

    def test_latency_exactly_equal_to_interval_is_not_a_miss(self):
        sampler = scripted_sampler([us(25)])
        stats = sampler.simulate_timing(us(25) * 10)
        assert stats.scheduled == 10
        assert stats.taken == 10
        assert stats.missed == 0

    def test_live_mode_latency_equal_to_interval(self):
        sampler = scripted_sampler([us(25)])
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 10)
        assert report.timing.scheduled == 10
        assert report.timing.missed == 0

    def test_live_duration_shorter_than_interval_rejected(self):
        sampler = scripted_sampler([us(1)])
        with pytest.raises(SamplingError):
            sampler.run_in_sim(Simulator(seed=0), us(10))

    def test_read_completing_exactly_at_window_end_is_recorded(self):
        # Last read starts at t = 3 * interval and completes at t = end.
        sampler = scripted_sampler([us(25)])
        report = sampler.run_in_sim(Simulator(seed=0), us(25) * 4)
        trace = report.traces["p.tx_bytes"]
        assert len(trace) == 4
        assert trace.timestamps_ns[-1] == us(25) * 4

    def test_final_overrun_clamped_to_window(self):
        """A huge latency on the final instants can't inflate scheduled
        past the number of grid points in the window."""
        sampler = scripted_sampler([us(10_000)])
        stats = sampler.simulate_timing(us(25) * 8)
        assert stats.scheduled == 8
        assert stats.missed == 8
        assert stats.taken == 1


class TestValidation:
    def test_empty_bindings_rejected(self):
        with pytest.raises(SamplingError):
            HighResSampler(SamplerConfig(), [])

    def test_duplicate_counter_names_rejected(self):
        with pytest.raises(CounterError):
            HighResSampler(SamplerConfig(), [byte_binding(), byte_binding()])

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            SamplerConfig(interval_ns=0)
