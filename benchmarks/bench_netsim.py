"""Netsim hot-path performance guard.

Measures the event engine on the exact workload the performance pass was
profiled against: the window phase (sampler polling loop over live
traffic, warmup excluded) of a cache window on the pinned pre-pass
backend scale.  Two numbers are reported and written as a CI artifact:

* **events/sec** — engine events processed per wall-clock second,
* **sim-ns per wall-second** — how much simulated time one second of
  wall time buys, which is what sets campaign turnaround.

The benchmark also re-checks the golden window CRC: a speedup that
changes a single trace byte is a determinism break, not an optimisation
(see ``tests/backends/test_backend_parity.py``).  It pins the window's
exact event count too, and reports the packets the ToR forwarded and the
events spent per forwarded packet, the measure of the event chain's
length.  Events get heavier as the chain gets shorter, so packets per
second is reported beside the events/sec floor.

The asserted floor is deliberately far below the reference machine's
post-pass rate (~490k events/s, up from the 197k pre-pass baseline
recorded below) so slow shared CI runners do not flake, while a
regression anywhere near the pre-pass engine still fails everywhere.

Run::

    pytest benchmarks/bench_netsim.py --benchmark-only

The artifact lands in ``benchmarks/artifacts/netsim_events_per_sec.json``
(override the directory with ``REPRO_BENCH_ARTIFACT_DIR``).
"""

import json
import os
import time
import zlib
from pathlib import Path

from repro.backends import NetsimBackend, NetsimScale
from repro.backends.base import single_port_plan
from repro.core.counters import bind_tx_bytes
from repro.core.sampler import HighResSampler, SamplerConfig
from repro.units import ms, seconds

#: Pre-performance-pass rate on the reference machine for this exact
#: workload (window phase, cache, pinned scale below).  Kept as recorded
#: history so the artifact can report the speedup ratio; the pass/fail
#: floor is machine-tolerant and separate.
RECORDED_BASELINE_EVENTS_PER_SEC = 197_171

#: Conservative floor: ~4x below the reference machine's post-pass rate,
#: ~2.5x above what the pre-pass engine would score there.
MIN_EVENTS_PER_SEC = 120_000

#: Golden CRC of the traces this workload produces (values||timestamps,
#: traces in sorted-name order) — pinned before the performance pass.
PINNED_WINDOW_CRC = 0x5E144EF5

#: Exact engine events of the window phase.  The run is deterministic, so
#: any change to the per-packet event chain moves this count and must
#: re-pin it in the commit that makes the change.
PINNED_WINDOW_EVENTS = 76_501


def _pinned_scale() -> NetsimScale:
    """The pre-pass default scale, pinned so the benchmark workload (and
    its golden CRC and baseline) stay comparable across releases even as
    the backend's default scale grows."""
    return NetsimScale(
        n_downlinks=8,
        n_uplinks=4,
        n_remote_hosts=12,
        warmup_ns=ms(10),
        max_window_ns=ms(20),
    )


def _window():
    plan = single_port_plan("cache", 1, seconds(2), seed=0, port="down0")
    return plan.windows[0]


def _traces_crc(traces) -> int:
    crc = 0
    for name in sorted(traces):
        trace = traces[name]
        crc = zlib.crc32(trace.values.tobytes(), crc)
        crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
    return crc


def _forwarded_packets(surface) -> int:
    """Packets every ToR port has sent so far (its egress histogram)."""
    return sum(sum(surface.read_tx_size_histogram(port)) for port in surface.port_names)


def _write_artifact(payload: dict) -> Path:
    directory = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "benchmarks/artifacts"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "netsim_events_per_sec.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def test_netsim_window_events_per_sec(benchmark):
    """Engine throughput on the backend window workload, CRC-locked."""
    backend = NetsimBackend(seed=0, scale=_pinned_scale())
    window = _window()

    def run():
        # The backend's own window recipe, split open so warmup can be
        # excluded and the event count read off the engine: _build is the
        # exact code path sample_window uses.
        sim, surface = backend._build(window)
        events_before = sim.events_processed
        forwarded_before = _forwarded_packets(surface)
        sampler = HighResSampler(
            SamplerConfig(interval_ns=backend.scale.interval_ns),
            [bind_tx_bytes(surface, "down0")],
            rng=backend._window_seed(window, "sampler"),
        )
        start = time.perf_counter()
        report = sampler.run_in_sim(sim, backend._duration_ns(window))
        wall_s = time.perf_counter() - start
        forwarded = _forwarded_packets(surface) - forwarded_before
        return report, sim.events_processed - events_before, forwarded, wall_s

    report, events, forwarded, wall_s = benchmark.pedantic(run, rounds=3, iterations=1)

    crc = _traces_crc(report.traces)
    assert crc == PINNED_WINDOW_CRC, (
        f"netsim window traces changed (crc {crc:#x} != {PINNED_WINDOW_CRC:#x}): "
        "a faster engine that alters a single byte is a determinism break"
    )

    assert events == PINNED_WINDOW_EVENTS, (
        f"window phase ran {events} events, pinned {PINNED_WINDOW_EVENTS}: "
        "re-pin only in a commit that changes the event chain on purpose"
    )

    events_per_sec = events / wall_s
    simulated_ns = backend._duration_ns(window)
    sim_ns_per_wall_s = simulated_ns / wall_s
    payload = {
        "workload": "cache window, pinned 8-down/4-up scale, 20 ms window",
        "events": events,
        "forwarded_packets": forwarded,
        "events_per_forwarded_packet": round(events / forwarded, 2),
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events_per_sec),
        "forwarded_packets_per_sec": round(forwarded / wall_s),
        "sim_ns_per_wall_s": round(sim_ns_per_wall_s),
        "recorded_baseline_events_per_sec": RECORDED_BASELINE_EVENTS_PER_SEC,
        "ratio_vs_recorded_baseline": round(
            events_per_sec / RECORDED_BASELINE_EVENTS_PER_SEC, 2
        ),
        "min_events_per_sec_floor": MIN_EVENTS_PER_SEC,
        "golden_crc_ok": True,
    }
    path = _write_artifact(payload)
    print(f"\nnetsim bench: {payload['events_per_sec']:,} events/s "
          f"({payload['ratio_vs_recorded_baseline']}x recorded baseline), "
          f"{payload['sim_ns_per_wall_s']:,} sim-ns/wall-s, "
          f"{payload['events_per_forwarded_packet']} events per forwarded packet "
          f"({payload['forwarded_packets_per_sec']:,} packets/s) -> {path}")

    assert events_per_sec > MIN_EVENTS_PER_SEC


def test_netsim_default_scale_window_affordable(benchmark):
    """The raised default scale (paper's 16-down rack, 40 ms cap) must
    stay cheaper per window than the old 8-down/20 ms default was before
    the performance pass (~1 s on the reference machine)."""
    backend = NetsimBackend(seed=0)
    window = _window()

    def run():
        return backend.sample_window(window)

    traces = benchmark.pedantic(run, rounds=1, iterations=1)
    assert traces  # produced something
    # Generous machine-tolerant ceiling; the reference machine sits ~0.6 s.
    assert benchmark.stats["mean"] < 5.0
