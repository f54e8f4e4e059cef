"""Fig 9: uplink vs. downlink share of hot ports at 300 µs sampling.

Paper landmarks: Web and Hadoop bursts are biased toward servers
(high fan-in) — only 18 % of hot Hadoop samples are uplinks, Web even
lower; Cache is the opposite, with most hot samples on uplinks
(response >> request plus 1:4 oversubscription).
"""

from __future__ import annotations

from repro.analysis.hotports import hot_share_by_direction
from repro.analysis.mad import resample_utilization
from repro.data.published import PAPER
from repro.experiments.common import APPS, ExperimentResult, rack_window


def run(
    seed: int = 0,
    duration_s: float = 10.0,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig9",
        title="Uplink/downlink share of hot ports @ 300us",
    )
    ticks_per_300us = 12
    shares = {}
    for app in APPS:
        window = rack_window(
            app, seed=seed, duration_s=duration_s, backend=backend, experiment="fig9"
        )
        up = resample_utilization(window.uplink_egress_util, ticks_per_300us)
        down = resample_utilization(window.downlink_util, ticks_per_300us)
        share = hot_share_by_direction(up, down)
        shares[app] = share
        paper_share = PAPER.fig9_uplink_share[app]
        if app == "hadoop":
            expectation = f"~{paper_share:.2f}"
        elif app == "web":
            expectation = "< hadoop's 0.18 (even lower)"
        else:
            expectation = "> 0.5 (uplink-majority)"
        uplink_share = round(share.uplink_share, 3)
        result.add(f"{app}: uplink share of hot samples", expectation, uplink_share)
        if app == "hadoop":
            result.check("hadoop uplink share in [0.08, 0.30]", 0.08 <= uplink_share <= 0.30)
        elif app == "web":
            result.check("web uplink share < 0.10", uplink_share < 0.10)
        else:
            result.check("cache uplink share > 0.45", uplink_share > 0.45)
        result.add(
            f"{app}: hot samples (up/down)",
            "(counts)",
            f"{share.uplink_hot}/{share.downlink_hot}",
        )
    ordering = (
        shares["web"].uplink_share
        < shares["hadoop"].uplink_share
        < shares["cache"].uplink_share
    )
    result.add("web share < hadoop share < cache share ordering", "holds (Fig 9)", ordering)
    result.check("share ordering holds", ordering)
    result.notes.append(
        "web/hadoop bursts come from many-to-one fan-in toward servers; "
        "cache responses exceed requests so the 1:4-oversubscribed uplinks "
        "are the bottleneck (Sec 6.3)"
    )
    return result
