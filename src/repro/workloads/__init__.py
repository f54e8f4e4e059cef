"""Application traffic generators.

The measured data center dedicates whole racks to single roles (Sec 4.2);
these generators reproduce the three application behaviours the paper
studies on top of the packet-level simulator:

* :class:`WebWorkload` — request-driven, stateless, user-facing; fan-in
  toward single servers dominates (Sec 6.3).
* :class:`CacheWorkload` — scatter-gather request groups with responses
  much larger than requests; uplink-bound (Sec 6.3) with correlated
  server subsets (Sec 6.2).
* :class:`HadoopWorkload` — offline shuffle of long, full-MTU flows;
  highest utilization and buffer pressure (Sec 5.4, 6.4).
"""

from repro.workloads.base import Workload, WorkloadStats
from repro.workloads.distributions import LogNormalSizes, ParetoSizes, SizeDistribution
from repro.workloads.flows import PoissonArrivals, OnOffArrivals
from repro.workloads.web import WebWorkload, WebConfig
from repro.workloads.cache import CacheWorkload, CacheConfig
from repro.workloads.hadoop import HadoopWorkload, HadoopConfig
from repro.workloads.packetsize import PacketSizeModel, APP_PACKET_MIX

__all__ = [
    "Workload",
    "WorkloadStats",
    "SizeDistribution",
    "LogNormalSizes",
    "ParetoSizes",
    "PoissonArrivals",
    "OnOffArrivals",
    "WebWorkload",
    "WebConfig",
    "CacheWorkload",
    "CacheConfig",
    "HadoopWorkload",
    "HadoopConfig",
    "PacketSizeModel",
    "APP_PACKET_MIX",
]
