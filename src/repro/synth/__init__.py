"""Campaign-scale synthetic trace generation.

The paper's dataset is 720 two-minute windows of 25 µs samples (billions
of points).  The packet-level simulator (:mod:`repro.netsim`) validates
mechanisms but cannot generate that volume in Python, so benchmarks use
this vectorised generator: semi-Markov on/off utilization processes per
port, calibrated per application against the paper's published
statistics (Table 2 transition matrices, Fig 3/4 duration and gap
shapes, Fig 6 intensity mixtures), plus rack-level structure for ECMP
imbalance (Fig 7), server correlation (Fig 8), directionality (Fig 9),
buffer response (Fig 10), and the coarse-grained drop behaviour of the
motivation study (Figs 1-2).

Cross-validation against the packet simulator lives in
``tests/integration/test_synth_vs_netsim.py``.
"""

from repro.synth.calibration import (
    APP_PROFILES,
    AppProfile,
    ColdUtilModel,
    DurationModel,
    GapModel,
    IntensityModel,
    PortProfile,
)
from repro.synth.onoff import OnOffGenerator
from repro.synth.rackmodel import RackSynthesizer, RackWindow
from repro.synth.buffermodel import BufferResponseModel
from repro.synth.dropmodel import CoarseLinkPopulation, DropEpisodeModel
from repro.synth.dataset import SyntheticCampaignSource

__all__ = [
    "APP_PROFILES",
    "AppProfile",
    "ColdUtilModel",
    "DurationModel",
    "GapModel",
    "IntensityModel",
    "PortProfile",
    "OnOffGenerator",
    "RackSynthesizer",
    "RackWindow",
    "BufferResponseModel",
    "CoarseLinkPopulation",
    "DropEpisodeModel",
    "SyntheticCampaignSource",
]
