"""Ablation benches for the design choices called out in DESIGN.md.

* Hot-threshold sweep (Sec 5.4: 50 % is not load-bearing).
* Sampling-granularity sweep: coarser sampling merges µbursts — the
  paper's central argument for high resolution.
* Dynamic vs. static buffer carving on the packet simulator.
* Flow-level ECMP vs. per-packet spraying (Sec 7's load-balancing
  implication).
"""

import numpy as np
from conftest import scaled

from repro.analysis import extract_bursts
from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.netsim import (
    BufferPolicy,
    RackConfig,
    Simulator,
    TorSwitchConfig,
    build_rack,
)
from repro.synth import APP_PROFILES, OnOffGenerator
from repro.units import ms
from repro.workloads import CacheConfig, CacheWorkload


def test_ablation_hot_threshold(benchmark, capsys):
    """Burst statistics are stable across 30/50/70 % thresholds."""
    profile = APP_PROFILES["hadoop"].downlink
    n_ticks = scaled(dict(n=1_000_000), dict(n=8_000_000))["n"]

    def run():
        series = OnOffGenerator(profile).generate(n_ticks, np.random.default_rng(1))
        return {
            threshold: extract_bursts(series.utilization, 25_000, threshold)
            for threshold in (0.3, 0.5, 0.7)
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nablation: hot threshold sweep (hadoop)")
        for threshold, s in stats.items():
            print(
                f"  threshold {threshold:.0%}: hot={s.hot_fraction:.4f} "
                f"p90={s.p90_duration_ns / 1000:.0f}us bursts={s.n_bursts}"
            )
    p90s = [s.p90_duration_ns for s in stats.values()]
    # p90 varies by at most ~2 sampling periods across thresholds
    assert max(p90s) - min(p90s) <= 75_000
    # hot fraction at 30 % within ~3x of the 50 % value (intense bursts)
    assert stats[0.3].hot_fraction < 3.0 * stats[0.5].hot_fraction


def test_ablation_sampling_granularity(benchmark, capsys):
    """Coarser sampling merges µbursts and hides them entirely at 1 ms+."""
    profile = APP_PROFILES["cache"].downlink
    n_ticks = scaled(dict(n=2_000_000), dict(n=8_000_000))["n"]

    def run():
        series = OnOffGenerator(profile).generate(n_ticks, np.random.default_rng(2))
        util = series.utilization
        out = {}
        for factor in (1, 4, 40):  # 25 us, 100 us, 1 ms
            coarse = util[: len(util) // factor * factor].reshape(-1, factor).mean(axis=1)
            out[25_000 * factor] = extract_bursts(coarse, 25_000 * factor)
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nablation: sampling granularity sweep (cache)")
        for interval, s in stats.items():
            print(
                f"  {interval // 1000}us: bursts={s.n_bursts} "
                f"hot={s.hot_fraction:.4f} p90={s.p90_duration_ns / 1000:.0f}us"
            )
    # burst count collapses as granularity coarsens (merging + dilution)
    assert stats[25_000].n_bursts > 3 * stats[100_000].n_bursts
    assert stats[100_000].n_bursts > 3 * stats[1_000_000].n_bursts
    # nearly everything hot vanishes at 1 ms granularity
    assert stats[1_000_000].hot_fraction < stats[25_000].hot_fraction / 3
    # apparent burst durations inflate: µbursts read as one long event
    assert stats[1_000_000].p90_duration_ns > 3 * stats[25_000].p90_duration_ns


def _incast_rack(buffer_policy, seed=9):
    sim = Simulator(seed=seed)
    rack = build_rack(
        sim,
        RackConfig(
            name="t",
            switch=TorSwitchConfig(
                n_downlinks=4, n_uplinks=2, buffer=buffer_policy
            ),
            n_remote_hosts=16,
        ),
    )
    for remote in rack.remote_hosts:
        remote.send_flow(rack.servers[0].name, 200_000)
    sim.run_for(ms(40))
    return rack


def test_ablation_buffer_carving(benchmark, capsys):
    """Dynamic carving absorbs incast better than static partitions."""

    def run():
        dynamic = _incast_rack(BufferPolicy(capacity_bytes=400_000, alpha=2.0))
        static = _incast_rack(
            BufferPolicy(capacity_bytes=400_000, alpha=2.0, static_per_port_bytes=400_000 // 6)
        )
        return dynamic, static

    dynamic, static = benchmark.pedantic(run, rounds=1, iterations=1)
    dynamic_drops = dynamic.tor.total_drops()
    static_drops = static.tor.total_drops()
    dynamic_peak = dynamic.tor.shared_buffer.peak_occupancy_read_and_reset()
    static_peak = static.tor.shared_buffer.peak_occupancy_read_and_reset()
    with capsys.disabled():
        print("\nablation: buffer carving under 16-to-1 incast")
        print(f"  dynamic: drops={dynamic_drops} peak={dynamic_peak}")
        print(f"  static : drops={static_drops} peak={static_peak}")
    # dynamic carving lets the incast victim absorb far beyond its static
    # share, which is why drops hit well below full occupancy (Sec 6.4)
    quota = 400_000 // 6
    assert dynamic_peak > quota
    assert static_peak <= quota + 16 * 1500  # all ports at quota, at most
    assert dynamic_peak > static_peak
    # both configurations drop under sustained 16-to-1 overload
    assert dynamic_drops > 0 and static_drops > 0


def test_ablation_unified_drop_model(benchmark, capsys):
    """Fig 1's decorrelation emerges from burst concurrency alone.

    Instead of the phenomenological link population (`synth.dropmodel`),
    derive drops mechanistically: synthesize rack downlink matrices
    across diurnal activity levels, charge drops whenever more ports are
    simultaneously hot than the shared buffer can absorb, and correlate
    per-port-window mean utilization with those drops.  The correlation
    lands in Fig 1's near-zero regime without any independent
    "burstiness" knob — supporting the paper's causal story.
    """
    from repro.synth import RackSynthesizer

    def run():
        rng = np.random.default_rng(11)
        synthesizer = RackSynthesizer("web")
        utils, drops = [], []
        for _ in range(40):  # 40 windows at varying load
            activity = float(np.clip(rng.lognormal(0.0, 1.0), 0.05, 4.0))
            window = synthesizer.synthesize(20_000, rng, activity=activity)
            # The window draws its uplinks from ``rng`` on first read; read
            # them now so the next activity draw continues the stream where
            # a full window's draws end, as it always has.
            window.uplink_ingress_util
            downlinks = window.downlink_util
            hot = downlinks > 0.5
            concurrency = hot.sum(axis=1)
            absorbable = 3  # buffer rides out up to 3 simultaneous bursts
            overload = np.maximum(0, concurrency - absorbable)
            # overload drops land on the ports that were hot in that tick
            for port in range(downlinks.shape[1]):
                port_drops = float((overload * hot[:, port]).sum())
                utils.append(float(downlinks[:, port].mean()))
                drops.append(port_drops)
        return float(np.corrcoef(utils, drops)[0, 1])

    correlation = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nablation: mechanistic drop model")
        print(f"  corr(mean utilization, concurrency-driven drops) = {correlation:.3f}")
        print("  paper's Fig 1 correlation: 0.098")
    assert -0.1 < correlation < 0.45  # weak, Fig 1's regime


def test_ablation_ecmp_mode(benchmark, capsys):
    """Per-packet spraying balances uplinks that flow hashing cannot."""

    def run_mode(mode):
        sim = Simulator(seed=4)
        rack = build_rack(
            sim,
            RackConfig(
                name="t",
                switch=TorSwitchConfig(n_downlinks=8, n_uplinks=4, ecmp_mode=mode),
                n_remote_hosts=24,
            ),
        )
        CacheWorkload(rack, CacheConfig(batch_rate_per_s=400), rng=4).install()
        sim.run_for(ms(80))
        uplink_bytes = np.array(
            [p.counters.tx_bytes for p in rack.tor.uplink_ports], dtype=float
        )
        mean = uplink_bytes.mean()
        return float(np.abs(uplink_bytes - mean).mean() / mean)

    def run():
        return run_mode("flow"), run_mode("packet")

    flow_mad, packet_mad = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nablation: ECMP mode (uplink byte-count MAD over 80 ms)")
        print(f"  flow-hash : MAD={flow_mad:.3f}")
        print(f"  per-packet: MAD={packet_mad:.3f}")
    assert packet_mad < flow_mad
    assert packet_mad < 0.05  # spraying is near-perfect
