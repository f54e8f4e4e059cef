"""ext-netsim: the packet simulator vs. the synthesiser, as an experiment.

DESIGN.md's substitution argument says the vectorised synthesiser is a
faithful stand-in for the mechanistic packet simulator.  This experiment
makes the cross-validation visible from the CLI: collect one window of
each application's measured port through the same campaign pipeline
every other experiment uses, once on a
:class:`~repro.backends.NetsimBackend` at validation scale and once on a
:class:`~repro.backends.SynthBackend`, and put the two sides' burst
statistics next to the paper's.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import extract_bursts_from_trace, fit_transition_matrix
from repro.analysis.bursts import trace_hot_mask
from repro.backends import NetsimBackend, NetsimScale, SynthBackend
from repro.core.campaign import CampaignPlan, CampaignWindow
from repro.core.parallel import ParallelCampaign
from repro.data.published import PAPER
from repro.experiments.common import APPS, ExperimentResult
from repro.units import ms

#: the port class where each application's bursts live (Fig 9): cache is
#: uplink-bound, web/hadoop burst toward the servers
_MEASURED_PORT = {"web": "down0", "cache": "up0", "hadoop": "down0"}


def _validation_scale(measure_ms: float) -> NetsimScale:
    """The pinned cross-validation scale: an 8-downlink rack with 24
    remote hosts, a long warmup, and a measurement window far beyond the
    default backend cap, so burst statistics are not scale-starved.
    Kept explicit (not the backend default, which has since grown to the
    paper's 16-downlink rack) so ext-netsim's published numbers stay
    comparable across releases."""
    return NetsimScale(
        n_downlinks=8,
        n_uplinks=4,
        n_remote_hosts=24,
        warmup_ns=int(ms(30)),
        max_window_ns=int(ms(measure_ms)),
    )


def _port_summary(backend, app: str, measure_ms: float) -> tuple[str, str, str]:
    """µburst share, likelihood ratio and median burst (µs) of ``app``'s
    measured port over one ``measure_ms`` window collected through
    ``backend``.  A window that held no burst has none of the three, as
    fig4 reports too few gaps."""
    port = _MEASURED_PORT[app]
    window = CampaignWindow(
        rack_id=f"{app}-extnetsim",
        rack_type=app,
        port_name=port,
        hour=0,
        start_ns=0,
        duration_ns=int(ms(measure_ms)),
    )
    outcome = ParallelCampaign(CampaignPlan(windows=(window,)), backend).run()
    ((_, traces),) = list(outcome.iter_windows())
    trace = traces[f"{port}.tx_bytes"]
    stats = extract_bursts_from_trace(trace)
    if stats.n_bursts == 0:
        return ("n/a (0 bursts)",) * 3
    mask = trace_hot_mask(trace)
    ratio = float("nan")
    if not mask.all():
        ratio = fit_transition_matrix(mask).likelihood_ratio
    return (
        f"{stats.microburst_fraction:.2f}",
        f"{ratio:.1f}",
        f"{np.median(stats.durations_ns) / 1000:.0f}",
    )


def run(seed: int = 0, measure_ms: float = 150.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-netsim",
        title="Cross-validation: packet simulator vs synthesiser vs paper",
    )
    netsim = NetsimBackend(seed=seed + 7, scale=_validation_scale(measure_ms))
    synth = SynthBackend(seed=seed + 7)
    for app in APPS:
        net_share, net_ratio, net_median = _port_summary(netsim, app, measure_ms)
        synth_share, synth_ratio, synth_median = _port_summary(synth, app, measure_ms)
        result.add(
            f"{app}: µburst share (netsim / synth)",
            ">= 0.7 on both",
            f"{net_share} / {synth_share}",
        )
        result.add(
            f"{app}: likelihood ratio (netsim / synth / paper)",
            ">> 1 everywhere",
            f"{net_ratio} / {synth_ratio} / {PAPER.table2[app].likelihood_ratio}",
        )
        result.add(
            f"{app}: median burst us (netsim / synth)",
            "same order of magnitude",
            f"{net_median} / {synth_median}",
        )
    result.notes.append(
        "the packet simulator is mechanistic (transport + buffer physics); "
        "the synthesiser is calibrated to the paper — agreement on shape is "
        "the substitution argument of DESIGN.md"
    )
    result.notes.append(
        "both columns collected through the unified campaign pipeline, on "
        "the same window and port (NetsimBackend at validation scale, "
        "SynthBackend)"
    )
    return result
