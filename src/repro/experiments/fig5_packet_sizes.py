"""Fig 5: packet-size histograms inside vs. outside bursts (100 µs).

Paper landmarks: Hadoop is nearly all full-MTU in both regimes (small
increase inside bursts); Cache shows ~20 % relative increase of large
packets inside bursts with small packets still dominating counts; Web
shows a ~60 % relative increase of large packets inside bursts.
"""

from __future__ import annotations

from repro.analysis.packetsizes import split_histogram_by_burst
from repro.data.published import PAPER
from repro.experiments.common import APPS, ExperimentResult, histogram_window


def run(
    seed: int = 0,
    duration_s: float = 20.0,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig5",
        title="Packet sizes inside/outside bursts (100us periods)",
    )
    for app in APPS:
        traces = histogram_window(
            app, seed=seed, duration_s=duration_s, backend=backend, experiment="fig5"
        )
        byte_trace = next(t for name, t in traces.items() if name.endswith(".tx_bytes"))
        hist_trace = next(
            t for name, t in traces.items() if name.endswith(".tx_size_hist")
        )
        # The paper's Fig 5 campaign polls at 100 us: view both counters
        # at that granularity before splitting by regime.
        split = split_histogram_by_burst(byte_trace.decimate(4), hist_trace.decimate(4))
        paper_increase = PAPER.fig5_large_packet_increase[app]
        result.add(
            f"{app}: large-packet share outside bursts",
            "(Fig 5b)",
            round(split.large_fraction_outside, 3),
        )
        result.add(
            f"{app}: large-packet share inside bursts",
            "(Fig 5a)",
            round(split.large_fraction_inside, 3),
        )
        result.add(
            f"{app}: relative large-packet increase",
            f"~{paper_increase:+.0%}",
            f"{split.large_packet_increase:+.1%}",
        )
        if app == "hadoop":
            result.add(
                "hadoop: MTU-bin share (always large)",
                f">= {PAPER.fig5_hadoop_mtu_share_min}",
                round(split.large_fraction_inside, 3),
            )
        if app == "cache":
            small_share = float(split.inside[:3].sum())
            result.add(
                "cache: small packets still dominate inside bursts",
                "> large share",
                round(small_share, 3),
            )
        result.add_series(
            f"{app}_hist_inside",
            [(float(i), float(v)) for i, v in enumerate(split.inside)],
        )
        result.add_series(
            f"{app}_hist_outside",
            [(float(i), float(v)) for i, v in enumerate(split.outside)],
        )
    result.notes.append(
        "bins follow ASIC RMON edges: 64, 65-127, 128-255, 256-511, "
        "512-1023, 1024-1518 bytes"
    )
    return result
