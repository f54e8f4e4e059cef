"""Three-tier Clos fabric topology.

The measured data center "uses a conventional 3-tier Clos network"
(Sec 4.2, citing the fabric design): servers -> ToR -> fabric switches ->
spine switches, a multi-rooted tree with ToRs as leaves.  This module
holds that topology's links, takes links down, and computes the
per-uplink capacity asymmetry the failures cause — the condition under
which "imbalance becomes significantly worse" (Sec 6.1), which the paper
could not intercept in production but we can inject.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Fabric shape, the paper's pod design scaled down: each ToR has one
#: uplink per fabric switch of its pod, and fabric switch ``f`` of every
#: pod reaches every spine of plane ``f``.
N_PODS = 4
N_RACKS_PER_POD = 4
N_FABRIC_PER_POD = 4
N_SPINES_PER_PLANE = 4


class ClosFabric:
    """The links of a multi-rooted Clos fabric, with failure injection.

    A link is the (unordered) pair of switch names it joins.
    """

    def __init__(self) -> None:
        self._pods = {
            self.tor_name(pod, rack): pod
            for pod in range(N_PODS)
            for rack in range(N_RACKS_PER_POD)
        }
        links: set[frozenset[str]] = set()
        for tor, pod in self._pods.items():
            for fabric in range(N_FABRIC_PER_POD):
                links.add(frozenset((tor, self.fabric_name(pod, fabric))))
        for pod in range(N_PODS):
            for fabric in range(N_FABRIC_PER_POD):
                for spine in range(N_SPINES_PER_PLANE):
                    links.add(
                        frozenset((self.fabric_name(pod, fabric), self.spine_name(fabric, spine)))
                    )
        self._links = frozenset(links)
        self._failed: set[frozenset[str]] = set()

    @staticmethod
    def tor_name(pod: int, rack: int) -> str:
        return f"tor-p{pod}r{rack}"

    @staticmethod
    def fabric_name(pod: int, fabric: int) -> str:
        return f"fab-p{pod}f{fabric}"

    @staticmethod
    def spine_name(plane: int, spine: int) -> str:
        return f"spine-l{plane}s{spine}"

    @property
    def tors(self) -> list[str]:
        """Every ToR, pod by pod."""
        return list(self._pods)

    def pod_of(self, tor: str) -> int:
        return self._pods[tor]

    # -- failures ------------------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Take one link down (order-insensitive)."""
        link = frozenset((a, b))
        if link not in self._links:
            raise ConfigError(f"no link {a!r} <-> {b!r}")
        self._failed.add(link)

    def restore_all(self) -> None:
        self._failed.clear()

    def _up(self, a: str, b: str) -> bool:
        return frozenset((a, b)) not in self._failed

    def uplink_capacity_factors(self, tor: str) -> list[float]:
        """Per-uplink usable-capacity factor in [0, 1] for one ToR.

        Factor 0 means the ToR–fabric link is down; otherwise the factor
        is the fraction of the fabric switch's spine-plane links still up.
        These factors feed the synthetic ECMP model for the
        failure-asymmetry experiment.
        """
        pod = self.pod_of(tor)
        factors: list[float] = []
        for plane in range(N_FABRIC_PER_POD):
            fabric = self.fabric_name(pod, plane)
            if not self._up(tor, fabric):
                factors.append(0.0)
                continue
            spine_links = sum(
                self._up(fabric, self.spine_name(plane, spine))
                for spine in range(N_SPINES_PER_PLANE)
            )
            factors.append(spine_links / N_SPINES_PER_PLANE)
        return factors
