"""Shared-buffer occupancy response model (Fig 10).

The packet-level simulator produces buffer occupancy physically; at
campaign scale we use a phenomenological response fitted to the same
mechanism: peak occupancy in a window grows with the number of
simultaneously hot ports, saturates at high counts (shared-buffer
ceiling plus the sublinear-buffering effect the paper cites), carries a
standing-occupancy floor (large for Hadoop), and is noisy window to
window.
"""

from __future__ import annotations

import numpy as np

from repro.synth.calibration import AppProfile, BufferResponse


class BufferResponseModel:
    """Maps per-window hot-port counts to normalised peak occupancy."""

    def __init__(self, response: BufferResponse) -> None:
        self.response = response

    @classmethod
    def for_app(cls, profile: AppProfile) -> "BufferResponseModel":
        return cls(profile.buffer)

    def mean_response(self, hot_ports: np.ndarray) -> np.ndarray:
        """Noise-free normalised occupancy for each hot-port count."""
        hot_ports = np.asarray(hot_ports, dtype=np.float64)
        r = self.response
        return r.base + r.scale * (1.0 - np.exp(-hot_ports / r.saturation_ports))

    def sample(
        self, hot_ports: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-window normalised peak occupancy draws in [0, 1]."""
        mean = self.mean_response(hot_ports)
        noise = rng.lognormal(0.0, self.response.noise_sigma, size=mean.shape)
        return np.clip(mean * noise, 0.0, 1.0)
