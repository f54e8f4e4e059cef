"""Fig 7: mean absolute deviation of the four uplinks.

Paper landmarks: at 40 µs, median MAD exceeds 25 % for all rack types;
Hadoop (longer flows) is least balanced with p90 ~ 100 %; at 1 s the
links appear balanced; ingress dispersion is close to egress (the
fabric adds little variance).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.mad import normalized_mad_series, resample_utilization
from repro.analysis.report import cdf_series
from repro.data.published import PAPER
from repro.experiments.common import APPS, ExperimentResult, backend_note, rack_window
from repro.synth.calibration import BASE_TICK_NS
from repro.units import seconds


def run(
    seed: int = 0,
    duration_s: float = 10.0,
    backend=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig7",
        title="MAD of uplink utilization: egress/ingress, 40us vs 1s",
    )
    ticks_per_40us = 2  # 2 x 25us ~ the paper's 40us sampling period
    ticks_per_1s = int(seconds(1)) // BASE_TICK_NS
    for app in APPS:
        window = rack_window(
            app, seed=seed, duration_s=duration_s, backend=backend, experiment="fig7"
        )
        for direction, util in (
            ("egress", window.uplink_egress_util),
            ("ingress", window.uplink_ingress_util),
        ):
            fine = normalized_mad_series(resample_utilization(util, ticks_per_40us))
            fine_cdf = EmpiricalCdf(fine)
            if direction == "egress":
                result.add(
                    f"{app} egress: median MAD @40us",
                    f"> {PAPER.fig7_median_mad_min}",
                    round(fine_cdf.median, 3),
                )
                if app == "hadoop":
                    result.add(
                        "hadoop egress: p90 MAD @40us",
                        f"~{PAPER.fig7_hadoop_p90_mad}",
                        round(fine_cdf.p90, 3),
                    )
                if window.n_ticks < ticks_per_1s:
                    # A short window (netsim) holds no whole 1 s period.
                    coarse_median = "n/a (window < 1 s)"
                else:
                    coarse = normalized_mad_series(resample_utilization(util, ticks_per_1s))
                    coarse_median = round(float(np.median(coarse)), 3)
                result.add(f"{app} egress: median MAD @1s", "balanced (small)", coarse_median)
            else:
                result.add(
                    f"{app} ingress vs egress median MAD @40us",
                    "similar (fabric adds little variance)",
                    round(fine_cdf.median, 3),
                )
            result.add_series(f"{app}_{direction}_mad40us_cdf", cdf_series(fine_cdf))
    result.notes.append(
        "flow-level consistent-hash ECMP cannot balance unequal flows at "
        "small timescales; see bench_ablations for per-packet spraying"
    )
    note = backend_note(backend)
    if note:
        result.notes.append(note)
    return result
