"""Performance-guard benches.

The figure benchmarks depend on two performance properties: the
vectorised synthesiser must generate millions of 25 µs ticks per second,
and the packet simulator must process events fast enough for the
examples and validation tests.  These benches measure both so
regressions show up in `--benchmark-compare` runs.
"""

import numpy as np

from repro.netsim import RackConfig, Simulator, TorSwitchConfig, build_rack
from repro.synth import APP_PROFILES, OnOffGenerator, RackSynthesizer
from repro.units import ms
from repro.workloads import CacheConfig, CacheWorkload

N_TICKS = 1_000_000


def test_onoff_generator_throughput(benchmark):
    """Single-port generation: must exceed ~2M ticks/s."""
    generator = OnOffGenerator(APP_PROFILES["cache"].downlink)

    def run():
        return generator.generate(N_TICKS, np.random.default_rng(1))

    series = benchmark(run)
    assert len(series) == N_TICKS
    ticks_per_second = N_TICKS / benchmark.stats["mean"]
    assert ticks_per_second > 1_000_000


def test_rack_synthesis_throughput(benchmark):
    """Whole-rack synthesis (20 ports + correlation + ECMP model)."""
    synthesizer = RackSynthesizer("cache")

    def run():
        window = synthesizer.synthesize(100_000, np.random.default_rng(2))
        window.uplink_ingress_util  # uplinks are drawn on first read; time them too
        return window

    window = benchmark(run)
    assert window.n_ticks == 100_000
    # port-ticks per second of wall time
    rate = 100_000 * 24 / benchmark.stats["mean"]
    assert rate > 500_000


def test_packet_simulator_throughput(benchmark):
    """Event-loop rate under a realistic workload: > 50k events/s."""

    def run():
        sim = Simulator(seed=3)
        rack = build_rack(
            sim,
            RackConfig(
                name="t",
                switch=TorSwitchConfig(n_downlinks=8, n_uplinks=4),
                n_remote_hosts=24,
            ),
        )
        CacheWorkload(rack, CacheConfig(batch_rate_per_s=200), rng=3).install()
        sim.run_for(ms(40))
        return sim.events_processed

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events > 10_000
    events_per_second = events / benchmark.stats["mean"]
    assert events_per_second > 50_000
