"""Seeded size distributions for flows and messages."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


class SizeDistribution(ABC):
    """Draws positive integer byte sizes."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """One draw."""


@dataclass(frozen=True, slots=True)
class LogNormalSizes(SizeDistribution):
    """Lognormal sizes clipped to a sane range.

    ``median_bytes`` is the distribution median; ``sigma`` the log-space
    standard deviation.  Typical RPC responses are well modelled this way.
    """

    median_bytes: int
    sigma: float
    min_bytes: int = 64
    max_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.median_bytes <= 0 or self.sigma < 0:
            raise ConfigError("bad lognormal parameters")
        if self.min_bytes > self.max_bytes:
            raise ConfigError("min_bytes exceeds max_bytes")

    def sample(self, rng: np.random.Generator) -> int:
        value = rng.lognormal(np.log(self.median_bytes), self.sigma)
        return int(np.clip(value, self.min_bytes, self.max_bytes))


@dataclass(frozen=True, slots=True)
class ParetoSizes(SizeDistribution):
    """Bounded Pareto: heavy-tailed flow sizes (Hadoop shuffle outputs)."""

    min_bytes: int
    alpha: float
    max_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.min_bytes <= 0 or self.alpha <= 0:
            raise ConfigError("bad Pareto parameters")
        if self.min_bytes > self.max_bytes:
            raise ConfigError("min_bytes exceeds max_bytes")

    def sample(self, rng: np.random.Generator) -> int:
        value = self.min_bytes * (1.0 + rng.pareto(self.alpha))
        return int(min(value, self.max_bytes))
