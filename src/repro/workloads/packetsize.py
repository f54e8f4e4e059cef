"""Per-application packet-size mixtures.

Sec 5.3: Hadoop sees mostly full-MTU packets; Web and Cache see a wider
range.  The mixtures below shape the data-packet sizes each workload
hands its transport; ACKs are minimum-size and emerge from the transport
itself, so the ASIC histograms show the full production-like mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.units import MIN_PACKET, MTU


@dataclass(frozen=True)
class PacketMix:
    """A discrete mixture over data-packet sizes."""

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ConfigError("sizes/weights length mismatch")
        if any(not MIN_PACKET <= s <= MTU for s in self.sizes):
            raise ConfigError("packet size outside frame limits")
        total = sum(self.weights)
        if total <= 0:
            raise ConfigError("weights must sum > 0")


#: Data-packet mixtures per application, loosely following the
#: distributions reported for this data center in Roy et al. (SIGCOMM'15)
#: and Fig 5 of the paper.
APP_PACKET_MIX: dict[str, PacketMix] = {
    "web": PacketMix(
        sizes=(90, 200, 400, 800, 1200, MTU),
        weights=(0.25, 0.20, 0.15, 0.12, 0.08, 0.20),
    ),
    "cache": PacketMix(
        sizes=(90, 200, 400, 800, MTU),
        weights=(0.30, 0.22, 0.15, 0.08, 0.25),
    ),
    "hadoop": PacketMix(
        sizes=(200, 1000, MTU),
        weights=(0.04, 0.04, 0.92),
    ),
}


class PacketSizeModel:
    """Samples data-packet sizes from an application mixture."""

    def __init__(self, mix: PacketMix) -> None:
        total = sum(mix.weights)
        self._probs = np.asarray(mix.weights, dtype=np.float64) / total
        self._sizes = np.asarray(mix.sizes, dtype=np.int64)

    def data_packet_size(self, rng: np.random.Generator) -> int:
        """One data-packet size draw."""
        return int(rng.choice(self._sizes, p=self._probs))

    def mean_size(self) -> float:
        return float((self._sizes * self._probs).sum())
