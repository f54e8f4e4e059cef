"""Three-tier Clos fabric topology.

The measured data center "uses a conventional 3-tier Clos network"
(Sec 4.2, citing the fabric design): servers -> ToR -> fabric switches ->
spine switches, a multi-rooted tree with ToRs as leaves.  This module
builds that topology as a graph, validates its structure, enumerates
equal-cost paths, and computes the per-uplink capacity asymmetry caused
by link failures — the condition under which "imbalance becomes
significantly worse" (Sec 6.1), which the paper could not intercept in
production but we can inject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.units import gbps

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True, slots=True)
class ClosConfig:
    """Fabric shape.

    Defaults follow the paper's pod design scaled down: each ToR has
    ``n_fabric_per_pod`` uplinks (one per fabric switch of its pod), and
    each fabric switch reaches every spine of its plane.
    """

    n_pods: int = 4
    n_racks_per_pod: int = 4
    n_fabric_per_pod: int = 4
    n_spines_per_plane: int = 4
    tor_uplink_rate_bps: float = gbps(10)
    fabric_spine_rate_bps: float = gbps(40)

    def __post_init__(self) -> None:
        if min(
            self.n_pods,
            self.n_racks_per_pod,
            self.n_fabric_per_pod,
            self.n_spines_per_plane,
        ) <= 0:
            raise ConfigError("all Clos dimensions must be positive")


class ClosFabric:
    """A multi-rooted Clos graph with failure injection.

    ``networkx`` is imported on construction, not with the module:
    ``repro.netsim`` re-exports this class, and only ext-failures builds
    one.
    """

    def __init__(self, config: ClosConfig | None = None) -> None:
        import networkx as nx

        self.config = config or ClosConfig()
        self.graph = nx.Graph()
        self._build()
        self._failed: set[tuple[str, str]] = set()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        for pod in range(cfg.n_pods):
            for rack in range(cfg.n_racks_per_pod):
                self.graph.add_node(self.tor_name(pod, rack), tier="tor", pod=pod)
            for fabric in range(cfg.n_fabric_per_pod):
                self.graph.add_node(
                    self.fabric_name(pod, fabric), tier="fabric", pod=pod
                )
        for plane in range(cfg.n_fabric_per_pod):
            for spine in range(cfg.n_spines_per_plane):
                self.graph.add_node(self.spine_name(plane, spine), tier="spine", plane=plane)
        # ToR <-> every fabric switch in its pod (the four uplinks)
        for pod in range(cfg.n_pods):
            for rack in range(cfg.n_racks_per_pod):
                for fabric in range(cfg.n_fabric_per_pod):
                    self.graph.add_edge(
                        self.tor_name(pod, rack),
                        self.fabric_name(pod, fabric),
                        rate_bps=cfg.tor_uplink_rate_bps,
                    )
        # fabric switch f of every pod <-> every spine of plane f
        for pod in range(cfg.n_pods):
            for fabric in range(cfg.n_fabric_per_pod):
                for spine in range(cfg.n_spines_per_plane):
                    self.graph.add_edge(
                        self.fabric_name(pod, fabric),
                        self.spine_name(fabric, spine),
                        rate_bps=cfg.fabric_spine_rate_bps,
                    )

    @staticmethod
    def tor_name(pod: int, rack: int) -> str:
        return f"tor-p{pod}r{rack}"

    @staticmethod
    def fabric_name(pod: int, fabric: int) -> str:
        return f"fab-p{pod}f{fabric}"

    @staticmethod
    def spine_name(plane: int, spine: int) -> str:
        return f"spine-l{plane}s{spine}"

    # -- structure queries --------------------------------------------------------

    @property
    def tors(self) -> list[str]:
        return [n for n, d in self.graph.nodes(data=True) if d["tier"] == "tor"]

    def validate(self) -> None:
        """Structural invariants of a healthy multi-rooted Clos."""
        cfg = self.config
        for tor in self.tors:
            if self.graph.degree(tor) != cfg.n_fabric_per_pod:
                raise ConfigError(f"{tor} has wrong uplink count")
        for node, data in self.graph.nodes(data=True):
            if data["tier"] == "fabric":
                expected = cfg.n_racks_per_pod + cfg.n_spines_per_plane
                if self.graph.degree(node) != expected:
                    raise ConfigError(f"{node} has wrong degree")
            elif data["tier"] == "spine":
                if self.graph.degree(node) != cfg.n_pods:
                    raise ConfigError(f"{node} has wrong degree")
        import networkx as nx

        if not nx.is_connected(self.graph):
            raise ConfigError("fabric is not connected")

    # -- failures ------------------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Take one link down (order-insensitive)."""
        if not self.graph.has_edge(a, b):
            raise ConfigError(f"no link {a!r} <-> {b!r}")
        self._failed.add(tuple(sorted((a, b))))

    def restore_all(self) -> None:
        self._failed.clear()

    def _live_graph(self) -> nx.Graph:
        live = self.graph.copy()
        live.remove_edges_from(self._failed)
        return live

    def uplink_capacity_factors(self, tor: str) -> list[float]:
        """Per-uplink usable-capacity factor in [0, 1] for one ToR.

        Factor 0 means the uplink (or its fabric switch's entire spine
        reachability) is down; fractional values mean the fabric switch
        lost part of its spine plane.  These factors feed the synthetic
        ECMP model for the failure-asymmetry experiment.
        """
        cfg = self.config
        pod = self.graph.nodes[tor]["pod"]
        live = self._live_graph()
        factors: list[float] = []
        for fabric_index in range(cfg.n_fabric_per_pod):
            fabric = self.fabric_name(pod, fabric_index)
            if not live.has_edge(tor, fabric):
                factors.append(0.0)
                continue
            spine_links = sum(
                1
                for spine in range(cfg.n_spines_per_plane)
                if live.has_edge(fabric, self.spine_name(fabric_index, spine))
            )
            factors.append(spine_links / cfg.n_spines_per_plane)
        return factors
