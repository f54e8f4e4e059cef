"""ASIC timing model tests, including Table 1 calibration."""

import numpy as np
import pytest

from repro.core.asic import AsicTimingModel, ReadCost
from repro.core.counters import CounterKind, CounterSpec
from repro.errors import ConfigError
from repro.units import us


@pytest.fixture
def model():
    return AsicTimingModel()


def byte_spec(name="b"):
    return CounterSpec(name, CounterKind.BYTE)


def buffer_spec():
    return CounterSpec("buf", CounterKind.PEAK_BUFFER)


class TestLatencies:
    def test_register_faster_than_memory(self, model, rng):
        register = model.group_read_latencies_ns([byte_spec()], 2000, rng)
        memory = model.group_read_latencies_ns([buffer_spec()], 2000, rng)
        assert np.median(register) < np.median(memory)

    def test_latency_positive(self, model, rng):
        latencies = model.group_read_latencies_ns([byte_spec()], 1000, rng)
        assert latencies.min() >= 1

    def test_byte_counter_latency_body_matches_table1(self, model, rng):
        """P(L > 10us) ~ 5-15 %, P(L > 25us) ~ 0.3-2 % (Table 1 drivers)."""
        latencies = model.group_read_latencies_ns([byte_spec()], 200_000, rng)
        p_over_10 = (latencies > us(10)).mean()
        p_over_25 = (latencies > us(25)).mean()
        assert 0.03 < p_over_10 < 0.15
        assert 0.002 < p_over_25 < 0.02
        assert (latencies > us(1)).mean() > 0.999  # 1 us never achievable

    def test_scalar_and_vector_draws_agree_statistically(self, model):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        scalars = [
            model.group_read_latency_ns([byte_spec()], rng_a) for _ in range(4000)
        ]
        vector = model.group_read_latencies_ns([byte_spec()], 4000, rng_b)
        assert np.median(scalars) == pytest.approx(np.median(vector), rel=0.1)


class TestBatching:
    def test_group_read_sublinear(self, model, rng):
        one = model.group_read_latencies_ns([byte_spec("a")], 5000, rng).mean()
        four_specs = [byte_spec(f"p{i}") for i in range(4)]
        four = model.group_read_latencies_ns(four_specs, 5000, rng).mean()
        assert one < four < 4 * one

    def test_empty_group_rejected(self, model, rng):
        with pytest.raises(ConfigError):
            model.group_read_latency_ns([], rng)


class TestSharedCore:
    def test_shared_core_more_interrupts(self, model, rng):
        dedicated = model.group_read_latencies_ns(
            [byte_spec()], 50_000, np.random.default_rng(1), dedicated_core=True
        )
        shared = model.group_read_latencies_ns(
            [byte_spec()], 50_000, np.random.default_rng(1), dedicated_core=False
        )
        # interrupts add 15-60 us: shared core has a much fatter tail
        assert (shared > us(15)).mean() > (dedicated > us(15)).mean() * 2


class TestCpuUtilization:
    def test_utilization_decreases_with_interval(self, model):
        fast = model.expected_cpu_utilization([byte_spec()], us(10))
        slow = model.expected_cpu_utilization([byte_spec()], us(100))
        assert slow < fast <= 1.0

    def test_sec41_twenty_percent_claim(self, model):
        """At 25 us a single byte counter costs a meaningful core share;
        at ~4x the interval it drops to <= 20 % (Sec 4.1 tradeoff)."""
        at_100us = model.expected_cpu_utilization([byte_spec()], us(100))
        assert at_100us <= 0.20

    def test_zero_interval_rejected(self, model):
        with pytest.raises(ConfigError):
            model.expected_cpu_utilization([byte_spec()], 0)


class TestValidation:
    def test_bad_interrupt_probability(self):
        with pytest.raises(ConfigError):
            AsicTimingModel(interrupt_probability=1.5)

    def test_bad_batch_factor(self):
        with pytest.raises(ConfigError):
            AsicTimingModel(batch_factor=2.0)

    def test_inverted_interrupt_range(self):
        with pytest.raises(ConfigError):
            AsicTimingModel(interrupt_extra_min_ns=100, interrupt_extra_max_ns=50)

    def test_read_cost_mu(self):
        cost = ReadCost(median_ns=1000.0, sigma=0.5)
        assert cost.mu == pytest.approx(np.log(1000.0))
