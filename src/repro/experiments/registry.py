"""Experiment registry: id -> runner."""

from __future__ import annotations

import inspect
from typing import Callable

from repro.errors import ConfigError
from repro.experiments import (
    ext_chaos_resilience,
    ext_implications,
    ext_netsim_validation,
    fig1_drops_vs_util,
    fig2_drop_timeseries,
    fig3_burst_durations,
    fig4_interburst,
    fig5_packet_sizes,
    fig6_utilization,
    fig7_load_balance,
    fig8_server_correlation,
    fig9_directionality,
    fig10_buffer_occupancy,
    tab1_sampling_loss,
    tab2_markov,
)
from repro.experiments.common import ExperimentResult, backend_note

Runner = Callable[..., ExperimentResult]

EXPERIMENTS: dict[str, Runner] = {
    "fig1": fig1_drops_vs_util.run,
    "fig2": fig2_drop_timeseries.run,
    "tab1": tab1_sampling_loss.run,
    "fig3": fig3_burst_durations.run,
    "tab2": tab2_markov.run,
    "fig4": fig4_interburst.run,
    "fig5": fig5_packet_sizes.run,
    "fig6": fig6_utilization.run,
    "fig7": fig7_load_balance.run,
    "fig8": fig8_server_correlation.run,
    "fig9": fig9_directionality.run,
    "fig10": fig10_buffer_occupancy.run,
    # Sec 7 / Sec 6.1 extension experiments (not paper figures)
    "ext-cc": ext_implications.run_cc,
    "ext-lb": ext_implications.run_lb,
    "ext-pacing": ext_implications.run_pacing,
    "ext-failures": ext_implications.run_failures,
    "ext-netsim": ext_netsim_validation.run,
    "ext-chaos": ext_chaos_resilience.run,
}


def get_experiment(experiment_id: str) -> Runner:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def accepts_param(runner: Runner, name: str) -> bool:
    """Whether a runner's signature takes ``name`` (or ``**kwargs``)."""
    parameters = inspect.signature(runner).parameters
    if name in parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


#: pipeline-level parameters the CLI passes to every experiment; a runner
#: that does not take one simply runs without it (``workers`` -> serial;
#: ``backend`` -> the run does not depend on it, and its result says so).
ADVISORY_PARAMS = ("workers", "backend")


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    runner = get_experiment(experiment_id)
    dropped = {
        name for name in ADVISORY_PARAMS if name in kwargs and not accepts_param(runner, name)
    }
    result = runner(**{k: v for k, v in kwargs.items() if k not in dropped})
    if "backend" in dropped:
        if kwargs["backend"] is not None:
            result.notes.append("backend-independent experiment: identical under every backend")
    else:
        note = backend_note(kwargs.get("backend"))
        if note:
            result.notes.append(note)
    return result
