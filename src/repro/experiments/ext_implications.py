"""Extension experiments: the paper's Sec 7 design implications, measured.

The paper closes with three implications it argues qualitatively; the
simulated substrate lets us measure them, plus the failure-asymmetry
case Sec 6.1 could not intercept in production:

* ``ext-cc``     — congestion control: what fraction of µbursts end
  before an RTT/2 (ECN/RTT) signal could even arrive, and how DCTCP
  compares with loss-based control under incast.
* ``ext-lb``     — load balancing: what fraction of inter-burst gaps
  exceed end-to-end latency (safe flowlet-split opportunities).
* ``ext-pacing`` — NIC pacing: burstiness with and without pacing.
* ``ext-failures`` — ECMP imbalance under fabric link failures.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bursts import extract_bursts_from_trace
from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.experiments.common import (
    APPS,
    ExperimentResult,
    reduce_app_traces,
)
from repro.experiments.fig3_burst_durations import burst_durations
from repro.experiments.fig4_interburst import burst_gaps
from repro.netsim import (
    BufferPolicy,
    RackConfig,
    Simulator,
    TorSwitchConfig,
    build_rack,
)
from repro.netsim.clos import ClosFabric
from repro.netsim.ecn import EcnConfig
from repro.synth.calibration import BASE_TICK_NS
from repro.synth.rackmodel import RackSynthesizer
from repro.units import gbps, ms, seconds, us


# --------------------------------------------------------------------------
# ext-cc: congestion-control reaction time vs µburst duration
# --------------------------------------------------------------------------


def _incast_drops(transport: str, seed: int) -> tuple[int, int]:
    """Steady-state (drops, peak buffer) for a sustained 16-to-1 incast.

    The first 20 ms (slow-start overshoot, identical for any transport
    because no feedback has arrived yet) are excluded: the interesting
    difference is how each congestion controller holds the queue after
    signals start flowing.
    """
    sim = Simulator(seed=seed)
    rack = build_rack(
        sim,
        RackConfig(
            name="cc",
            switch=TorSwitchConfig(
                n_downlinks=4,
                n_uplinks=2,
                buffer=BufferPolicy(capacity_bytes=200_000, alpha=1.0),
                ecn=EcnConfig(mark_threshold_bytes=30_000),
            ),
            n_remote_hosts=16,
            transport=transport,
            rto_ns=ms(2),
        ),
    )
    for remote in rack.remote_hosts:
        remote.send_flow(rack.servers[0].name, 2_000_000)
    sim.run_for(ms(20))
    drops_warmup = rack.tor.total_drops()
    rack.tor.shared_buffer.peak_occupancy_read_and_reset()
    sim.run_for(ms(100))
    steady_drops = rack.tor.total_drops() - drops_warmup
    steady_peak = rack.tor.shared_buffer.peak_occupancy_read_and_reset()
    return steady_drops, steady_peak


#: a large share of web and cache microbursts end before one RTT (100us)
_ONE_RTT_MIN = {"web": 0.8, "cache": 0.6}


def run_cc(
    seed: int = 0,
    n_windows: int = 12,
    window_s: float = 2.0,
    backend=None,
    workers: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-cc",
        title="Sec 7: congestion signals arrive after many µbursts end",
    )
    for app in APPS:
        durations = np.concatenate(reduce_app_traces(
            app, burst_durations, seed=seed, n_windows=n_windows,
            window_s=window_s, backend=backend, workers=workers,
        ))
        for rtt_us in (50, 100, 200):
            shorter = round(float((durations < us(rtt_us)).mean()), 3)
            result.add(
                f"{app}: bursts over before 1 RTT ({rtt_us}us) elapses",
                "large fraction (Sec 7)",
                shorter,
            )
            if rtt_us == 100 and app in _ONE_RTT_MIN:
                result.check(
                    f"{app} bursts over before 100us > {_ONE_RTT_MIN[app]:.1f}",
                    shorter > _ONE_RTT_MIN[app],
                )
    reno_drops, reno_peak = _incast_drops("reno", seed + 1)
    dctcp_drops, dctcp_peak = _incast_drops("dctcp", seed + 1)
    result.add("incast drops: reno -> dctcp", "ECN reduces loss", f"{reno_drops} -> {dctcp_drops}")
    result.check("dctcp incast drops <= reno", dctcp_drops <= reno_drops)
    result.add(
        "incast peak buffer: reno -> dctcp",
        "ECN keeps queues shorter",
        f"{reno_peak} -> {dctcp_peak}",
    )
    result.notes.append(
        "even a one-RTT signal misses most Web/Cache bursts entirely; "
        "lower-latency signals or better buffering are needed (Sec 7)"
    )
    return result


# --------------------------------------------------------------------------
# ext-lb: flowlet-splitting opportunities
# --------------------------------------------------------------------------


def run_lb(
    seed: int = 0,
    n_windows: int = 12,
    window_s: float = 2.0,
    backend=None,
    workers: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-lb",
        title="Sec 7: inter-burst gaps vs end-to-end latency (flowlet splits)",
    )
    for app in APPS:
        gaps = np.concatenate(reduce_app_traces(
            app, burst_gaps, seed=seed, n_windows=n_windows,
            window_s=window_s, backend=backend, workers=workers,
        ))
        for latency_us in (50, 100, 250):
            exceed = round(float((gaps > us(latency_us)).mean()), 3)
            result.add(
                f"{app}: gaps exceeding {latency_us}us e2e latency",
                "most (safe to re-split)" if latency_us <= 100 else "(tighter)",
                exceed,
            )
            if latency_us == 50:
                result.check(f"{app} gaps over 50us > 0.4", exceed > 0.4)
    result.notes.append(
        "a gap longer than the e2e latency guarantees no reordering when "
        "the next burst takes a new path — the microflow-LB argument"
    )
    return result


# --------------------------------------------------------------------------
# ext-pacing: NIC pacing vs µbursts
# --------------------------------------------------------------------------


def _chunked_sender_burstiness(pacing_rate_bps, seed: int):
    """One server streams periodic 40 kB application chunks to a remote.

    Unpaced, segmentation offload puts each chunk on the wire as a
    line-rate train — a textbook µburst every period.  Pacing spreads the
    same bytes at the paced rate.
    """
    sim = Simulator(seed=seed)
    rack = build_rack(
        sim,
        RackConfig(
            name="pace",
            switch=TorSwitchConfig(n_downlinks=4, n_uplinks=2),
            n_remote_hosts=8,
            pacing_rate_bps=pacing_rate_bps,
        ),
    )
    sender = rack.servers[0]
    receiver = rack.remote_hosts[0]
    for chunk in range(200):
        sim.schedule(us(300) * chunk, lambda: sender.send_flow(receiver.name, 40_000))
    from repro.core import HighResSampler, SamplerConfig
    from repro.core.counters import bind_rx_bytes
    from repro.netsim import SwitchCounterSurface

    surface = SwitchCounterSurface(rack.tor)
    # measure the sender's ingress into the ToR (its NIC's output)
    sampler = HighResSampler(
        SamplerConfig(interval_ns=us(25)), [bind_rx_bytes(surface, "down0")], rng=seed
    )
    report = sampler.run_in_sim(sim, ms(60))
    stats = extract_bursts_from_trace(report.traces["down0.rx_bytes"])
    return stats


def run_pacing(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-pacing",
        title="Sec 7: NIC pacing vs µburst intensity",
    )
    unpaced = _chunked_sender_burstiness(None, seed + 2)
    paced = _chunked_sender_burstiness(gbps(2), seed + 2)
    result.add("hot fraction: unpaced -> paced", "pacing smooths bursts",
               f"{unpaced.hot_fraction:.4f} -> {paced.hot_fraction:.4f}")
    result.add("bursts: unpaced -> paced", "far fewer with pacing",
               f"{unpaced.n_bursts} -> {paced.n_bursts}")
    result.check("paced bursts < a tenth of unpaced", paced.n_bursts < unpaced.n_bursts // 10)
    if unpaced.n_bursts:
        result.add(
            "p90 burst duration unpaced (us)",
            "tens of us (offload trains)",
            round(unpaced.p90_duration_ns / 1000.0, 1),
        )
    result.notes.append(
        "segmentation offload emits line-rate trains; pacing at a fraction "
        "of line rate removes the µbursts those trains create (Sec 7)"
    )
    return result


# --------------------------------------------------------------------------
# ext-failures: ECMP imbalance under fabric asymmetry (Sec 6.1's gap)
# --------------------------------------------------------------------------


def run_failures(seed: int = 0, duration_s: float = 5.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-failures",
        title="Sec 6.1: imbalance under failure-induced asymmetry",
    )
    fabric = ClosFabric()
    tor = fabric.tors[0]
    n_ticks = int(seconds(duration_s)) // BASE_TICK_NS
    synthesizer = RackSynthesizer("hadoop")

    def median_mad(factors) -> float:
        rng = np.random.default_rng(seed + 3)
        util = synthesizer.uplink_matrix(
            n_ticks, rng, capacity_factors=np.asarray(factors) if factors is not None else None
        )
        series = normalized_mad_series(resample_utilization(util, 2))
        return float(np.median(series)) if len(series) else 0.0

    healthy = median_mad(fabric.uplink_capacity_factors(tor))
    pod = fabric.pod_of(tor)
    fabric.fail_link(tor, fabric.fabric_name(pod, 0))
    one_uplink_down = median_mad(fabric.uplink_capacity_factors(tor))
    fabric.restore_all()
    fabric.fail_link(fabric.fabric_name(pod, 1), fabric.spine_name(1, 0))
    fabric.fail_link(fabric.fabric_name(pod, 1), fabric.spine_name(1, 1))
    partial = fabric.uplink_capacity_factors(tor)
    partial_mad = median_mad(partial)
    fabric.restore_all()

    result.add("healthy fabric: median MAD @40us", "(baseline, Fig 7)", round(healthy, 3))
    result.add(
        "one ToR uplink down: median MAD",
        "significantly worse (Sec 6.1, citing CONGA/F10)",
        round(one_uplink_down, 3),
    )
    result.add(
        "half a spine plane down: capacity factors",
        "asymmetric",
        "/".join(f"{f:.2f}" for f in partial),
    )
    result.add("half a spine plane down: median MAD", "worse than healthy", round(partial_mad, 3))
    worse = bool(one_uplink_down > healthy)
    result.add("imbalance ordering holds", "failure > healthy", worse)
    result.check("one uplink down is less balanced than healthy", worse)
    return result
