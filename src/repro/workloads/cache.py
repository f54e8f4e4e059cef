"""Cache rack workload.

Cache servers "serve as an in-memory cache of data used by the web
servers", with leaders handling coherency and followers serving reads
(Sec 4.2, citing the memcache deployment).  Requests "are initiated in
groups from web servers", so subsets of cache servers see strongly
correlated load (Sec 6.2), and because responses are much larger than
requests the racks are uplink-bound under 1:4 oversubscription (Sec 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.netsim.topology import Rack
from repro.workloads.base import Workload
from repro.workloads.distributions import LogNormalSizes, SizeDistribution
from repro.workloads.flows import PoissonArrivals
from repro.workloads.packetsize import PacketSizeModel, APP_PACKET_MIX


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Knobs for the Cache workload.

    ``group_size`` cache servers are hit together by each scatter-gather
    batch (they hold shards of the same keyspace region); ``n_groups``
    fixed groups partition the rack.  Leaders (one per group) additionally
    exchange small coherency traffic.
    """

    batch_rate_per_s: float = 400.0
    group_size: int = 4
    response: SizeDistribution = field(
        default_factory=lambda: LogNormalSizes(median_bytes=40_000, sigma=1.1)
    )
    coherency_bytes: int = 2_000
    coherency_rate_per_s: float = 50.0

    def __post_init__(self) -> None:
        if self.batch_rate_per_s <= 0 or self.group_size <= 0:
            raise ConfigError("cache workload needs positive rate and group size")


class CacheWorkload(Workload):
    """Scatter-gather reads against fixed server groups."""

    def __init__(
        self,
        rack: Rack,
        config: CacheConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(rack, rng)
        self.config = config or CacheConfig()
        self.packet_mix = PacketSizeModel(APP_PACKET_MIX["cache"])
        if not rack.remote_hosts:
            raise ConfigError("cache workload needs remote web frontends")
        n_servers = len(rack.servers)
        size = min(self.config.group_size, n_servers)
        self.groups: list[list[int]] = [
            list(range(start, min(start + size, n_servers)))
            for start in range(0, n_servers, size)
        ]
        #: group index -> leader server index (first member).
        self.leaders = [group[0] for group in self.groups]

    def _install(self, until_ns: int | None) -> None:
        arrivals = PoissonArrivals(
            sim=self.rack.sim,
            rate_per_s=self.config.batch_rate_per_s,
            fire=self._scatter_gather,
            rng=np.random.default_rng(self.rng.integers(0, 2**63 - 1)),
            until_ns=until_ns,
        )
        arrivals.start()
        coherency = PoissonArrivals(
            sim=self.rack.sim,
            rate_per_s=self.config.coherency_rate_per_s,
            fire=self._coherency_round,
            rng=np.random.default_rng(self.rng.integers(0, 2**63 - 1)),
            until_ns=until_ns,
        )
        coherency.start()

    def _scatter_gather(self) -> None:
        """One web-frontend batch hits every member of one group at once."""
        self.stats.requests_issued += 1
        group = self.groups[int(self.rng.integers(len(self.groups)))]
        frontend = self.rack.remote_hosts[
            int(self.rng.integers(len(self.rack.remote_hosts)))
        ]
        for server_index in group:
            server = self.rack.servers[server_index]
            response_size = self.config.response.sample(self.rng)
            server.send_flow(
                frontend.name,
                response_size,
                packet_size=self.packet_mix.data_packet_size(self.rng),
            )
        self.stats.requests_completed += 1

    def _coherency_round(self) -> None:
        """A leader pushes small invalidations to its followers."""
        group_index = int(self.rng.integers(len(self.groups)))
        group = self.groups[group_index]
        leader = self.rack.servers[self.leaders[group_index]]
        for follower_index in group[1:]:
            follower = self.rack.servers[follower_index]
            leader.send_flow(
                follower.name,
                self.config.coherency_bytes,
                packet_size=256,
            )
