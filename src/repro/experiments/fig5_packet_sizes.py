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

#: paper: web ~+60 %, cache ~+20 %, hadoop small (already all-MTU)
_INCREASE_BANDS = {"web": (0.35, 1.0), "cache": (0.05, 0.40), "hadoop": (-0.05, 0.15)}


def run(
    seed: int = 0,
    duration_s: float = 20.0,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig5",
        title="Packet sizes inside/outside bursts (100us periods)",
    )
    increase = {}
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
        # the increase as the row shows it, a percentage to one decimal
        increase[app] = round(split.large_packet_increase * 100, 1) / 100
        low, high = _INCREASE_BANDS[app]
        result.check(
            f"{app} large-packet increase in [{low:.2f}, {high:.2f}]",
            low <= increase[app] <= high,
        )
        if app == "hadoop":
            mtu_share = round(split.large_fraction_inside, 3)
            result.add(
                "hadoop: MTU-bin share (always large)",
                f">= {PAPER.fig5_hadoop_mtu_share_min}",
                mtu_share,
            )
            result.check("hadoop MTU-bin share >= 0.80", mtu_share >= 0.80)
        if app == "cache":
            small_share = round(float(split.inside[:3].sum()), 3)
            result.add(
                "cache: small packets still dominate inside bursts",
                "> large share",
                small_share,
            )
            result.check("cache small-packet share inside bursts >= 0.50", small_share >= 0.50)
        result.add_series(
            f"{app}_hist_inside",
            [(float(i), float(v)) for i, v in enumerate(split.inside)],
        )
        result.add_series(
            f"{app}_hist_outside",
            [(float(i), float(v)) for i, v in enumerate(split.outside)],
        )
    result.check(
        "increase ordering web > cache > hadoop",
        increase["web"] > increase["cache"] > increase["hadoop"],
    )
    result.notes.append(
        "bins follow ASIC RMON edges: 64, 65-127, 128-255, 256-511, "
        "512-1023, 1024-1518 bytes"
    )
    return result
