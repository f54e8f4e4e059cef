"""repro: reproduction of "High-Resolution Measurement of Data Center
Microbursts" (Zhang, Liu, Zeng, Krishnamurthy — IMC 2017).

The package has five layers:

* :mod:`repro.netsim` — packet-level ToR-switch simulator (the hardware
  substrate the paper measured).
* :mod:`repro.workloads` — Web / Cache / Hadoop application traffic.
* :mod:`repro.core` — the paper's contribution: the high-resolution
  counter-collection framework (sampler, ASIC timing, campaigns).
* :mod:`repro.synth` — campaign-scale calibrated trace synthesis.
* :mod:`repro.analysis` — burst statistics and every figure's analysis.

Quickstart::

    from repro import Simulator, build_rack, HighResSampler, SamplerConfig
    from repro.core.counters import bind_tx_bytes
    from repro.netsim import SwitchCounterSurface
    from repro.workloads import WebWorkload
    from repro.analysis import extract_bursts_from_trace
    from repro.units import ms, us

    sim = Simulator(seed=1)
    rack = build_rack(sim)
    WebWorkload(rack, rng=1).install()
    sim.run_for(ms(20))                       # warm up
    surface = SwitchCounterSurface(rack.tor)
    sampler = HighResSampler(SamplerConfig(interval_ns=us(25)),
                             [bind_tx_bytes(surface, "down0")])
    report = sampler.run_in_sim(sim, ms(50))
    stats = extract_bursts_from_trace(report.traces["down0.tx_bytes"])
    print(stats.n_bursts, stats.p90_duration_ns)
"""

from repro.errors import (
    AnalysisError,
    ConfigError,
    CounterError,
    DataFormatError,
    ReproError,
    SamplingError,
    SchedulingError,
    SimulationError,
)
from repro.netsim import (
    BufferPolicy,
    EcmpHasher,
    FabricCloud,
    Link,
    Packet,
    Rack,
    RackConfig,
    Server,
    SharedBuffer,
    Simulator,
    SwitchCounterSurface,
    TorSwitch,
    TorSwitchConfig,
    build_rack,
)
from repro.core import (
    AsicTimingModel,
    CounterTrace,
    HighResSampler,
    MeasurementCampaign,
    SamplerConfig,
    SamplerReport,
)
from repro.workloads import (
    CacheWorkload,
    HadoopWorkload,
    WebWorkload,
)
from repro.synth import APP_PROFILES, OnOffGenerator, RackSynthesizer
from repro.analysis import (
    EmpiricalCdf,
    extract_bursts,
    fit_transition_matrix,
)
from repro.data import PAPER

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "SchedulingError",
    "CounterError",
    "SamplingError",
    "AnalysisError",
    "DataFormatError",
    # netsim
    "Simulator",
    "BufferPolicy",
    "SharedBuffer",
    "EcmpHasher",
    "FabricCloud",
    "Link",
    "Packet",
    "Rack",
    "RackConfig",
    "Server",
    "TorSwitch",
    "TorSwitchConfig",
    "SwitchCounterSurface",
    "build_rack",
    # core
    "AsicTimingModel",
    "CounterTrace",
    "HighResSampler",
    "MeasurementCampaign",
    "SamplerConfig",
    "SamplerReport",
    # workloads
    "WebWorkload",
    "CacheWorkload",
    "HadoopWorkload",
    # synth
    "APP_PROFILES",
    "OnOffGenerator",
    "RackSynthesizer",
    # analysis
    "EmpiricalCdf",
    "extract_bursts",
    "fit_transition_matrix",
    # data
    "PAPER",
    "__version__",
]
