#!/usr/bin/env python
"""Incast µbursts: why SNMP counters miss congestion (the Sec 3 story).

Sixteen remote hosts dogpile one server.  The 25 µs sampler sees repeated
line-rate µbursts and congestion drops at the victim's downlink; the same
trace as a 40 ms poller would have recorded it (SNMP's minutes,
compressed) shows a nearly idle link — utilization and drops decorrelate
exactly as the paper's Fig 1 observes.

Run:  python examples/incast_microburst.py
"""

from repro import HighResSampler, SamplerConfig, Simulator, build_rack
from repro.core.counters import bind_tx_bytes, bind_tx_drops
from repro.netsim import BufferPolicy, RackConfig, SwitchCounterSurface, TorSwitchConfig
from repro.units import ms, us


def main() -> None:
    sim = Simulator(seed=7)
    rack = build_rack(
        sim,
        RackConfig(
            name="incast",
            switch=TorSwitchConfig(
                n_downlinks=4,
                n_uplinks=2,
                buffer=BufferPolicy(capacity_bytes=250_000, alpha=1.0),
            ),
            n_remote_hosts=16,
        ),
    )
    victim = rack.servers[0]

    # Scatter requests: every 8 ms a fresh wave of senders answers at once
    # (a scatter-gather response wave), each shipping 150 kB to the victim.
    for wave in range(8):
        for remote in rack.remote_hosts:
            sim.schedule(
                ms(8) * wave + int(remote.name[-1]) * 1000,
                lambda r=remote: r.send_flow(victim.name, 150_000),
            )

    surface = SwitchCounterSurface(rack.tor)
    sampler = HighResSampler(
        SamplerConfig(interval_ns=us(25)),
        [bind_tx_bytes(surface, "down0"), bind_tx_drops(surface, "down0")],
        rng=3,
    )
    # 120 ms: every wave has drained before the last full 40 ms bin closes.
    report = sampler.run_in_sim(sim, ms(120))
    byte_trace = report.traces["down0.tx_bytes"]
    drop_trace = report.traces["down0.tx_drops"]

    fine_util = byte_trace.utilization()
    hot = fine_util > 0.5
    print("=== high-resolution view (25 us) ===")
    print(f"peak utilization   : {fine_util.max():.0%}")
    print(f"hot samples        : {hot.sum()} ({hot.mean():.2%} of samples)")
    print(f"congestion drops   : {int(drop_trace.values[-1])}")
    print(f"buffer peak        : {surface.read_peak_buffer_and_reset()} bytes "
          f"of {surface.buffer_capacity_bytes}")

    # Cumulative counters are lossless across skipped reads, so keeping
    # every 1600th 25 us sample is exactly what a 40 ms poller records.
    factor = ms(40) // us(25)
    coarse_util = byte_trace.decimate(factor).utilization()
    coarse_drops = drop_trace.decimate(factor).deltas()
    print()
    print("=== SNMP-style view (40 ms bins) ===")
    for index, (util, drops) in enumerate(zip(coarse_util, coarse_drops)):
        print(f"bin {index}: utilization {util:6.1%}   drops {int(drops)}")
    print()
    print("The coarse view reports a lightly loaded link with drops —")
    print("the Fig 1 paradox. All congestion lives inside microbursts.")


if __name__ == "__main__":
    main()
