"""Parallel campaign and vectorized-kernel benches.

Two performance properties back this repo's scale story: sharded
campaign collection must speed up with worker processes (the paper polls
30 ToR switches concurrently), and the numpy analysis kernels must beat
their scalar reference oracles by a wide margin at campaign data
volumes.  Speedup assertions are gated on the machine actually having
cores to parallelize over; the byte-identity assertions always run.  The
oracles are the test suite's (``tests/oracles.py``).
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

from conftest import scaled
from repro.analysis.bursts import extract_bursts_gap_aware
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.runs import run_lengths
from repro.core.parallel import ParallelCampaign
from repro.core.samples import CounterTrace, ValueKind
from repro.core.traceio import _crc
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.units import gbps, seconds, us

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    gap_aware_core_segmented,
    scalar_deltas,
    scalar_ecdf_probs,
    scalar_run_lengths,
)

INTERVAL = us(25)
KERNEL_N = scaled(dict(n=200_000), dict(n=1_000_000))["n"]


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


# -- sharded campaign collection -------------------------------------------------


def run_parallel_campaign(workers):
    plan = default_plan(
        racks_per_app=2,
        hours=2,
        window_duration_ns=scaled(dict(w=seconds(1.0)), dict(w=seconds(10.0)))["w"],
    )
    source = SyntheticCampaignSource(seed=0)
    elapsed, result = timed(
        lambda: ParallelCampaign(plan, source, workers=workers).run()
    )
    crcs = tuple(
        _crc(traces[name].values)
        for traces in result.traces
        for name in sorted(traces)
    )
    return elapsed, crcs


def test_parallel_campaign_speedup(benchmark):
    """4-worker collection: identical bytes always, and >= 2x faster
    where the hardware can deliver it (CI runners may expose one core)."""
    serial_s, serial_crcs = run_parallel_campaign(workers=1)

    def run():
        return run_parallel_campaign(workers=4)

    parallel_s, parallel_crcs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert parallel_crcs == serial_crcs
    if (os.cpu_count() or 1) >= 4:
        speedup = serial_s / parallel_s
        assert speedup >= 2.0, f"4 workers only {speedup:.2f}x over serial"


# -- vectorized kernels vs scalar oracles ----------------------------------------


def bench_trace(n):
    rng = np.random.default_rng(3)
    util = np.where(rng.random(n) < 0.1, 0.95, 0.05)
    bytes_per_tick = np.rint(util * gbps(10) * INTERVAL / 8e9).astype(np.int64)
    values = np.concatenate(([0], np.cumsum(bytes_per_tick)))
    keep = rng.random(n + 1) >= 0.02
    keep[[0, -1]] = True
    return CounterTrace(
        timestamps_ns=INTERVAL * np.arange(n + 1, dtype=np.int64)[keep],
        values=values[keep],
        kind=ValueKind.CUMULATIVE,
        name="bench",
        rate_bps=gbps(10),
    )


def test_vectorized_kernel_throughput(benchmark):
    """Vectorized deltas / run-lengths / ECDF vs their scalar oracles:
    >= 5x at bench scale (1M samples at REPRO_BENCH_SCALE=full).  The
    oracles are deliberately naive loops, so the real ratio is orders of
    magnitude; the oracle side runs on a 1/50 slice and is extrapolated
    so the bench itself stays fast."""
    trace = bench_trace(KERNEL_N)
    mask = np.random.default_rng(4).random(KERNEL_N) < 0.5
    samples = trace.values.astype(np.float64)
    queries = np.linspace(samples.min(), samples.max(), 50)

    def vectorized():
        return (
            trace.deltas(),
            run_lengths(mask, True),
            EmpiricalCdf(samples)(queries),
        )

    results = benchmark(vectorized)
    fast_s, _ = timed(vectorized)
    stride = 50
    slow_s = 0.0
    for fn, args in (
        (scalar_deltas, (trace.values[::stride],)),
        (scalar_run_lengths, (mask[::stride], True)),
        (scalar_ecdf_probs, (np.sort(samples[::stride]), queries)),
    ):
        elapsed, _ = timed(fn, *args)
        slow_s += elapsed * stride
    assert results[0].dtype == np.int64
    ratio = slow_s / fast_s
    assert ratio >= 5.0, f"vectorized kernels only {ratio:.1f}x over scalar"


def test_gap_aware_pipeline_scalar_parity_throughput(benchmark):
    """Full gap-aware burst pipeline: the segment-materializing scalar
    oracle gives identical results, and the vectorized path is >= 5x
    faster."""
    trace = bench_trace(KERNEL_N // 10)

    fast = benchmark(extract_bursts_gap_aware, trace)
    fast_s, _ = timed(extract_bursts_gap_aware, trace)
    slow_s, slow = timed(
        gap_aware_core_segmented, trace, trace.nominal_interval_ns(), 0.5, 1.5
    )
    durations, _gaps, _pooled, _n_segments, n_clipped = slow
    assert np.array_equal(fast.durations_ns, durations)
    assert fast.n_clipped_bursts == n_clipped
    ratio = slow_s / fast_s
    assert ratio >= 5.0, f"gap-aware pipeline only {ratio:.1f}x over scalar"
