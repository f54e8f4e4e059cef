"""Table 1: effect of sampling interval on miss rate for a byte counter.

The paper reports 100 % missed intervals at 1 us, ~10 % at 10 us, and
~1 % at 25 us, which fixed their choice of 25 us for byte counters.  We
run the polling-loop timing model at each interval and report measured
miss rates, plus the buffer counter at its 50 us interval and the
multi-counter batching behaviour.
"""

from __future__ import annotations

from repro.core.asic import AsicTimingModel
from repro.core.counters import CounterBinding, CounterKind, CounterSpec
from repro.core.sampler import HighResSampler, SamplerConfig
from repro.data.published import PAPER
from repro.experiments.common import ExperimentResult
from repro.units import seconds, us


def _byte_binding(name: str = "port.tx_bytes") -> CounterBinding:
    spec = CounterSpec(name=name, kind=CounterKind.BYTE, rate_bps=10e9)
    return CounterBinding(spec=spec, read=lambda: 0)


def _buffer_binding() -> CounterBinding:
    spec = CounterSpec(name="shared_buffer.peak", kind=CounterKind.PEAK_BUFFER)
    return CounterBinding(spec=spec, read=lambda: 0)


def run(seed: int = 0, duration_s: float = 2.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="tab1",
        title="Sampling interval vs missed intervals (byte counter)",
    )
    duration = seconds(duration_s)
    miss = {}
    for interval_ns, paper_miss in sorted(PAPER.tab1_miss_rates.items()):
        sampler = HighResSampler(
            SamplerConfig(interval_ns=interval_ns), [_byte_binding()], rng=seed
        )
        stats = sampler.simulate_timing(duration)
        miss[interval_ns // 1000] = round(stats.miss_rate, 4)
        result.add(
            f"miss rate @ {interval_ns // 1000} us",
            paper_miss,
            miss[interval_ns // 1000],
        )
    # paper: 1us -> 100 %, 10us -> ~10 %, 25us -> ~1 %
    result.check("miss rate @ 1us >= 0.99", miss[1] >= 0.99)
    result.check("miss rate @ 10us in [0.05, 0.18]", 0.05 <= miss[10] <= 0.18)
    result.check("miss rate @ 25us in [0.003, 0.03]", 0.003 <= miss[25] <= 0.03)

    buffer_sampler = HighResSampler(
        SamplerConfig(interval_ns=PAPER.buffer_counter_interval_ns),
        [_buffer_binding()],
        rng=seed,
    )
    buffer_stats = buffer_sampler.simulate_timing(duration)
    result.add(
        "buffer counter usable interval",
        f"{PAPER.buffer_counter_interval_ns // 1000} us (slower to poll)",
        f"{PAPER.buffer_counter_interval_ns // 1000} us, miss {buffer_stats.miss_rate:.3f}",
    )

    # Sec 4.1: multiple counters poll together with sublinear cost.
    timing = AsicTimingModel()
    one = timing.expected_cpu_utilization([_byte_binding().spec], us(25))
    four_specs = [_byte_binding(f"p{i}.tx_bytes").spec for i in range(4)]
    four = timing.expected_cpu_utilization(four_specs, us(25))
    result.add(
        "4-counter cost vs 1-counter (sublinear)",
        "< 4x",
        f"{four / one:.2f}x",
    )
    dedicated = HighResSampler(
        SamplerConfig(interval_ns=us(25), dedicated_core=True), [_byte_binding()], rng=seed
    ).simulate_timing(duration)
    shared = HighResSampler(
        SamplerConfig(interval_ns=us(25), dedicated_core=False), [_byte_binding()], rng=seed
    ).simulate_timing(duration)
    result.add(
        "shared-core precision penalty (miss rate)",
        "precision traded for utilization",
        f"{dedicated.miss_rate:.3f} -> {shared.miss_rate:.3f}",
    )
    return result
