"""Pluggable measurement backends.

One campaign pipeline, interchangeable data planes: the
:class:`~repro.backends.base.MeasurementBackend` protocol is the seam
between everything that *measures* (campaigns, the parallel runner,
fault injection, analysis) and whatever *produces the traffic* — the
calibrated synthesiser (:class:`SynthBackend`) or the packet-level
simulator (:class:`NetsimBackend`).  ``resolve_backend`` is the single
entry point the CLI and experiments use to turn ``--backend synth`` /
``--backend netsim`` into a seeded instance.
"""

from __future__ import annotations

from repro.backends.base import (
    DEFAULT_N_DOWNLINKS,
    DEFAULT_N_UPLINKS,
    MeasurementBackend,
    default_port_names,
    rack_window_spec,
    single_port_plan,
)
from repro.backends.netsim import NetsimBackend, NetsimScale
from repro.backends.synth import SynthBackend
from repro.errors import ConfigError

#: Registered backend factories, keyed by CLI name.
BACKENDS = {
    "synth": SynthBackend,
    "netsim": NetsimBackend,
}


def resolve_backend(
    backend: MeasurementBackend | str | None,
    seed: int = 0,
) -> MeasurementBackend:
    """Turn a backend name (or ``None``, or an instance) into a backend.

    ``None`` resolves to the synth backend — the historical default every
    experiment ran on.  Instances pass through untouched (their own seed
    wins), so callers can hand a pre-scaled ``NetsimBackend`` to any
    experiment.
    """
    if backend is None:
        return SynthBackend(seed=seed)
    if isinstance(backend, str):
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
            )
        return BACKENDS[backend](seed=seed)
    return backend


__all__ = [
    "BACKENDS",
    "DEFAULT_N_DOWNLINKS",
    "DEFAULT_N_UPLINKS",
    "MeasurementBackend",
    "NetsimBackend",
    "NetsimScale",
    "SynthBackend",
    "default_port_names",
    "rack_window_spec",
    "resolve_backend",
    "single_port_plan",
]
