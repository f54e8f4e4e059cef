"""Web rack workload.

Web servers "receive web requests and assemble a dynamic web page using
data from many remote sources" (Sec 4.2).  Per user request, a web server
fans out small RPCs to many remote sources; the responses converge on the
server's downlink (high fan-in — Sec 6.3 attributes Web/Hadoop bursts to
many senders hitting one destination), and the assembled page leaves via
the uplinks.  Servers are stateless and user-driven, so their activity is
mutually uncorrelated (Sec 6.2).
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
class WebConfig:
    """Knobs for the Web workload.

    ``request_rate_per_s`` is per web server.  ``fanout`` controls how
    many remote sources each page assembly touches; responses arrive
    near-simultaneously, which is what creates downlink µbursts.
    """

    request_rate_per_s: float = 120.0
    fanout: int = 24
    rpc_response: SizeDistribution = field(
        default_factory=lambda: LogNormalSizes(median_bytes=12_000, sigma=1.0)
    )
    page_response: SizeDistribution = field(
        default_factory=lambda: LogNormalSizes(median_bytes=60_000, sigma=0.8)
    )

    def __post_init__(self) -> None:
        if self.request_rate_per_s <= 0 or self.fanout <= 0:
            raise ConfigError("web workload needs positive rate and fanout")


class WebWorkload(Workload):
    """User-request-driven page assembly with remote fan-in."""

    def __init__(
        self,
        rack: Rack,
        config: WebConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(rack, rng)
        self.config = config or WebConfig()
        self.packet_mix = PacketSizeModel(APP_PACKET_MIX["web"])
        if not rack.remote_hosts:
            raise ConfigError("web workload needs remote hosts as data sources")

    def _install(self, until_ns: int | None) -> None:
        for server in self.rack.servers:
            arrivals = PoissonArrivals(
                sim=self.rack.sim,
                rate_per_s=self.config.request_rate_per_s,
                fire=lambda srv=server: self._handle_user_request(srv),
                rng=np.random.default_rng(self.rng.integers(0, 2**63 - 1)),
                until_ns=until_ns,
            )
            arrivals.start()

    def _handle_user_request(self, server) -> None:
        """One user request hits ``server``: fan out, gather, respond."""
        self.stats.requests_issued += 1
        remotes = self.rng.choice(
            len(self.rack.remote_hosts),
            size=min(self.config.fanout, len(self.rack.remote_hosts)),
            replace=False,
        )
        pending = {"count": len(remotes)}
        user = self.rack.remote_hosts[int(self.rng.integers(len(self.rack.remote_hosts)))]

        def on_rpc_done(_flow) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                # All sources answered: ship the assembled page to the user.
                page = self.config.page_response.sample(self.rng)
                server.send_flow(
                    user.name, page, packet_size=self.packet_mix.data_packet_size(self.rng)
                )
                self.stats.requests_completed += 1

        for index in remotes:
            remote = self.rack.remote_hosts[int(index)]
            response_size = self.config.rpc_response.sample(self.rng)
            # Request is small; model it as the response being triggered
            # after a one-way delay (request serialization is negligible).
            remote.send_flow(
                server.name,
                response_size,
                packet_size=self.packet_mix.data_packet_size(self.rng),
                on_complete=on_rpc_done,
            )
