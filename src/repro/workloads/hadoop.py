"""Hadoop rack workload.

Hadoop servers "are used for offline analysis and data mining" (Sec 4.2):
long shuffle flows of full-MTU packets, sustained high utilization, and
the heaviest shared-buffer pressure of the three rack types (Sec 6.4).
Transfers go to both rack-local peers and remote reducers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.netsim.topology import Rack
from repro.workloads.base import Workload
from repro.workloads.distributions import ParetoSizes, SizeDistribution
from repro.workloads.flows import OnOffArrivals
from repro.workloads.packetsize import PacketSizeModel, APP_PACKET_MIX


@dataclass(frozen=True, slots=True)
class HadoopConfig:
    """Knobs for the Hadoop workload.

    Each server alternates shuffle phases (ON: transfers fire back to
    back) with idle/compute phases (OFF, heavy-tailed).  ``local_fraction``
    of transfers target rack-local peers — those create the many-to-one
    downlink congestion the paper observes.
    """

    transfer_rate_per_s: float = 12.0
    mean_on_s: float = 0.4
    median_off_s: float = 0.8
    off_sigma: float = 1.2
    transfer_size: SizeDistribution = field(
        default_factory=lambda: ParetoSizes(min_bytes=2_000_000, alpha=1.6)
    )
    local_fraction: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.local_fraction <= 1.0:
            raise ConfigError("local_fraction must be in [0, 1]")
        if self.transfer_rate_per_s <= 0:
            raise ConfigError("transfer rate must be positive")


class HadoopWorkload(Workload):
    """Shuffle-phase bulk transfers in ON/OFF phases."""

    def __init__(
        self,
        rack: Rack,
        config: HadoopConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(rack, rng)
        self.config = config or HadoopConfig()
        self.packet_mix = PacketSizeModel(APP_PACKET_MIX["hadoop"])
        if len(rack.servers) < 2 and not rack.remote_hosts:
            raise ConfigError("hadoop workload needs peers to shuffle with")

    def _install(self, until_ns: int | None) -> None:
        for server in self.rack.servers:
            arrivals = OnOffArrivals(
                sim=self.rack.sim,
                on_rate_per_s=self.config.transfer_rate_per_s,
                mean_on_s=self.config.mean_on_s,
                median_off_s=self.config.median_off_s,
                off_sigma=self.config.off_sigma,
                fire=lambda srv=server: self._start_transfer(srv),
                rng=np.random.default_rng(self.rng.integers(0, 2**63 - 1)),
                until_ns=until_ns,
            )
            arrivals.start()

    def _start_transfer(self, server) -> None:
        """One shuffle transfer from ``server`` to a random peer."""
        self.stats.requests_issued += 1
        size = self.config.transfer_size.sample(self.rng)
        go_local = (
            self.rng.random() < self.config.local_fraction
            and len(self.rack.servers) > 1
        )
        if go_local:
            peers = [s for s in self.rack.servers if s.name != server.name]
            dst = peers[int(self.rng.integers(len(peers)))]
        else:
            dst = self.rack.remote_hosts[
                int(self.rng.integers(len(self.rack.remote_hosts)))
            ]
        server.send_flow(
            dst.name,
            size,
            packet_size=self.packet_mix.data_packet_size(self.rng),
            on_complete=lambda _flow: self._count_done(),
        )
        # Remote reducers also pull map output from this rack's peers,
        # keeping ingress busy as well.
        if not go_local and self.rack.remote_hosts:
            remote = self.rack.remote_hosts[
                int(self.rng.integers(len(self.rack.remote_hosts)))
            ]
            pull_size = self.config.transfer_size.sample(self.rng)
            target = self.rack.servers[int(self.rng.integers(len(self.rack.servers)))]
            remote.send_flow(
                target.name,
                pull_size,
                packet_size=self.packet_mix.data_packet_size(self.rng),
            )

    def _count_done(self) -> None:
        self.stats.requests_completed += 1
