"""Correctness gate: paper-landmark verdicts and output digests.

The synth verdicts are the ones ``benchmarks/bench_fig*.py`` assert.
Those were calibrated against the synthesiser; at the netsim backend's
reduced scale the packet-level shapes differ (few bursts in a window
of a few milliseconds), so netsim windows are gated instead on
invariants that hold for any correct run and that a bug in the
counters, the sampler or the packet engine would break.

At the benchmark's input sizes some synth verdicts flip with the seed
(they were tuned on seed 0 at the bench files' larger sizes).  Those are
listed in :data:`ADVISORY`: reported on every run, but not gating.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.data import PAPER
from repro.netsim.port import SIZE_BIN_EDGES

APPS = ("web", "cache", "hadoop")


def _rows(result) -> dict:
    return {metric: measured for metric, _paper, measured in result.rows}


def _fig3(r: dict) -> list[tuple[str, bool]]:
    checks = [
        ("web p90 burst <= 75us", r["web: p90 burst duration (us)"] <= 75),
        ("cache p90 burst <= 300us", r["cache: p90 burst duration (us)"] <= 300),
        ("hadoop p90 burst <= 300us", r["hadoop: p90 burst duration (us)"] <= 300),
        ("web single-period >= 0.60", r["web: single-period bursts"] >= 0.60),
        ("cache single-period >= 0.55", r["cache: single-period bursts"] >= 0.55),
    ]
    checks += [
        (f"{app} microburst share >= 0.95", r[f"{app}: microburst (<1ms) share"] >= 0.95)
        for app in APPS
    ]
    return checks


def _fig4(r: dict) -> list[tuple[str, bool]]:
    checks = [
        ("web gaps<100us in [0.25, 0.55]", 0.25 <= r["web: gaps < 100us"] <= 0.55),
        ("cache gaps<100us in [0.25, 0.60]", 0.25 <= r["cache: gaps < 100us"] <= 0.60),
        ("web p99 gap > 5ms", r["web: p99 gap (ms)"] > 5.0),
    ]
    checks += [
        (
            f"{app} rejects Poisson",
            float(str(r[f"{app}: KS p-value vs exponential"]).split()[0]) < 0.01,
        )
        for app in APPS
    ]
    return checks


def _fig6(r: dict) -> list[tuple[str, bool]]:
    hot = {app: r[f"{app}: time hot (>50%)"] for app in APPS}
    checks = [
        ("hadoop hot in [0.06, 0.20]", 0.06 <= hot["hadoop"] <= 0.20),
        ("hot ordering hadoop > cache > web", hot["hadoop"] > hot["cache"] > hot["web"]),
        (
            "hadoop near-full in [0.04, 0.15]",
            0.04 <= r["hadoop: periods near 100% utilization"] <= 0.15,
        ),
    ]
    checks += [
        (f"{app} median utilization < 0.5", r[f"{app}: median utilization"] < 0.5)
        for app in APPS
    ]
    return checks


def _tab2(r: dict) -> list[tuple[str, bool]]:
    checks = []
    for app in APPS:
        paper = PAPER.table2[app]
        ratio = r[f"{app}: likelihood ratio r"]
        checks += [
            (f"{app} p11 within 0.08", abs(r[f"{app}: p(1|1)"] - paper.p11) < 0.08),
            (f"{app} r > 5", ratio > 5),
            (f"{app} r within 0.4-2.5x paper", 0.4 < ratio / paper.likelihood_ratio < 2.5),
        ]
    checks.append((
        "r ordering web > cache > hadoop",
        r["web: likelihood ratio r"] > r["cache: likelihood ratio r"]
        > r["hadoop: likelihood ratio r"],
    ))
    return checks


def _fig7(r: dict) -> list[tuple[str, bool]]:
    mad = {app: r[f"{app} egress: median MAD @40us"] for app in APPS}
    checks = [(f"{app} median MAD@40us > 0.25", mad[app] > 0.25) for app in APPS]
    checks += [
        ("hadoop p90 MAD in [0.8, 1.6]", 0.8 <= r["hadoop egress: p90 MAD @40us"] <= 1.6),
        ("MAD ordering hadoop > cache > web", mad["hadoop"] > mad["cache"] > mad["web"]),
    ]
    checks += [
        (f"{app} MAD@1s < 0.25", r[f"{app} egress: median MAD @1s"] < 0.25) for app in APPS
    ]
    checks += [
        (
            f"{app} ingress close to egress",
            abs(r[f"{app} ingress vs egress median MAD @40us"] - mad[app]) / mad[app] < 0.35,
        )
        for app in APPS
    ]
    return checks


def _fig8(r: dict) -> list[tuple[str, bool]]:
    return [
        ("web |corr| < 0.10", abs(r["web: mean pairwise correlation"]) < 0.10),
        ("cache within-group > 0.50", r["cache: within-group correlation"] > 0.50),
        ("cache |across-group| < 0.15", abs(r["cache: across-group correlation"]) < 0.15),
        (
            "hadoop corr in (0.05, 0.45)",
            0.05 < r["hadoop: mean pairwise correlation"] < 0.45,
        ),
    ]


def _fig9(r: dict) -> list[tuple[str, bool]]:
    return [
        ("web uplink share < 0.10", r["web: uplink share of hot samples"] < 0.10),
        (
            "hadoop uplink share in [0.08, 0.30]",
            0.08 <= r["hadoop: uplink share of hot samples"] <= 0.30,
        ),
        ("cache uplink share > 0.45", r["cache: uplink share of hot samples"] > 0.45),
        ("share ordering holds", r["web share < hadoop share < cache share ordering"] is True),
    ]


def _fig10(r: dict) -> list[tuple[str, bool]]:
    low = {app: r[f"{app}: occupancy at fewest hot ports (median)"] for app in APPS}
    most = {app: r[f"{app}: max fraction of ports simultaneously hot"] for app in APPS}
    return [
        ("hadoop standing occupancy > web", low["hadoop"] > low["web"]),
        (
            "hadoop occupancy scales most",
            r["hadoop occupancy scales most drastically with hot ports"] is True,
        ),
        ("max-hot ordering hadoop >= cache > web", most["hadoop"] >= most["cache"] > most["web"]),
        ("hadoop max-hot >= 0.7", most["hadoop"] >= 0.7),
    ]


VERDICTS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig6": _fig6,
    "tab2": _tab2,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
}


#: Fewest and most bytes a packet in each size-histogram bin can carry.
_BIN_LOW = np.array((0,) + tuple(edge + 1 for edge in SIZE_BIN_EDGES[:-1]))
_BIN_HIGH = np.array(SIZE_BIN_EDGES)


def byte_trace_verdicts(trace) -> list[tuple[str, bool]]:
    """Invariants of one netsim byte-counter trace."""
    durations = trace.interval_durations_ns()
    deltas = trace.deltas()
    # A frame is counted when its last bit leaves, so a period holds at
    # most line rate times its length, plus the frame already on the wire
    # when the period began.
    budget = trace.rate_bps / 8 * durations / 1e9 + SIZE_BIN_EDGES[-1]
    return [
        ("netsim: trace polled on a time grid", len(trace) > 1 and bool((durations > 0).all())),
        ("netsim: byte counter never decreases", bool((deltas >= 0).all())),
        ("netsim: no period above line rate", bool((deltas <= budget).all())),
    ]


def histogram_verdicts(byte_trace, hist_trace) -> list[tuple[str, bool]]:
    """The byte counter and packet-size histogram of one port, polled
    together, agree: each period's byte increment lies between the fewest
    and the most bytes its per-bin packet increments can carry."""
    packets = hist_trace.deltas()
    deltas = byte_trace.deltas()
    return [(
        "netsim fig5: packet-size histogram brackets the byte count",
        bool(((packets @ _BIN_LOW <= deltas) & (deltas <= packets @ _BIN_HIGH)).all()),
    )]


#: Verdicts that failed on at least one of seeds 0-29 at the benchmark's
#: input sizes (see suite.py); all other verdicts held on every seed.
ADVISORY = frozenset({
    "fig9: web uplink share < 0.10",
    "fig9: cache uplink share > 0.45",
    "fig9: share ordering holds",
    "fig10: hadoop occupancy scales most",
    "fig10: max-hot ordering hadoop >= cache > web",
    "fig10: hadoop max-hot >= 0.7",
})


def figure_verdicts(fig: str, result) -> list[tuple[str, bool]]:
    return [(f"{fig}: {name}", bool(ok)) for name, ok in VERDICTS[fig](_rows(result))]


def result_digest(results: dict) -> str:
    """sha256 over every figure's rows and series, in run order."""
    payload = {fig: result.to_dict(include_series=True) for fig, result in results.items()}
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def traces_digest(trace_sets) -> str:
    """sha256 over the bytes of an iterable of ``{name: CounterTrace}``."""
    digest = hashlib.sha256()
    for traces in trace_sets:
        for name in sorted(traces):
            trace = traces[name]
            digest.update(name.encode())
            digest.update(str(trace.values.dtype).encode())
            digest.update(trace.timestamps_ns.tobytes())
            digest.update(trace.values.tobytes())
    return digest.hexdigest()
