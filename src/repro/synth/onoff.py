"""Vectorised semi-Markov on/off utilization generator.

Generates per-tick utilization series by alternating burst and gap runs
drawn from the calibrated models, then expanding runs with
``numpy.repeat``.  This produces millions of 25 µs ticks per second of
wall time, which is what makes campaign-scale reproduction feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.synth.calibration import PortProfile


@dataclass(slots=True)
class OnOffSeries:
    """A generated series: utilization plus its ground-truth hot mask."""

    utilization: np.ndarray
    hot: np.ndarray

    def __len__(self) -> int:
        return len(self.utilization)


class OnOffGenerator:
    """Draws utilization series for one port profile."""

    def __init__(self, profile: PortProfile) -> None:
        self.profile = profile

    def _draw_runs(
        self, n_ticks: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Alternating (lengths, is_hot) runs covering >= n_ticks."""
        mean_cycle = self.profile.duration.mean() + self.profile.gap.mean()
        n_cycles = max(4, int(1.3 * n_ticks / mean_cycle) + 4)
        lengths_list: list[np.ndarray] = []
        flags_list: list[np.ndarray] = []
        covered = 0
        start_hot = bool(rng.random() < self.profile.hot_fraction)
        first = True
        while covered < n_ticks:
            gaps = self.profile.gap.sample(rng, n_cycles)
            bursts = self.profile.duration.sample(rng, n_cycles)
            interleaved = np.empty(2 * n_cycles, dtype=np.int64)
            flags = np.empty(2 * n_cycles, dtype=bool)
            if start_hot and first:
                interleaved[0::2] = bursts
                interleaved[1::2] = gaps
                flags[0::2] = True
                flags[1::2] = False
            else:
                interleaved[0::2] = gaps
                interleaved[1::2] = bursts
                flags[0::2] = False
                flags[1::2] = True
            lengths_list.append(interleaved)
            flags_list.append(flags)
            covered += int(interleaved.sum())
            first = False
        return np.concatenate(lengths_list), np.concatenate(flags_list)

    def generate(self, n_ticks: int, rng: np.random.Generator) -> OnOffSeries:
        """One utilization series of exactly ``n_ticks`` samples."""
        if n_ticks <= 0:
            raise ConfigError("n_ticks must be positive")
        lengths, flags = self._draw_runs(n_ticks, rng)
        # Trim the run sequence to exactly n_ticks.
        ends = np.cumsum(lengths)
        last = int(np.searchsorted(ends, n_ticks))
        lengths = lengths[: last + 1].copy()
        flags = flags[: last + 1]
        lengths[-1] -= int(ends[last] - n_ticks)
        hot = np.repeat(flags, lengths)

        util = np.empty(n_ticks)
        n_cold = int((~hot).sum())
        util[~hot] = self.profile.cold.sample(rng, n_cold)
        # One intensity per burst, smeared with small per-tick noise.
        burst_lengths = lengths[flags]
        intensities = self.profile.intensity.sample(rng, len(burst_lengths))
        per_tick = np.repeat(intensities, burst_lengths)
        noise = rng.normal(0.0, self.profile.intensity.tick_noise, size=len(per_tick))
        util[hot] = np.clip(per_tick + noise, 0.501, 1.0)
        return OnOffSeries(utilization=util, hot=hot)

    def generate_mask_runs(
        self, n_ticks: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(burst_starts, burst_lengths) covering n_ticks, for correlation
        synthesis where members copy individual bursts."""
        lengths, flags = self._draw_runs(n_ticks, rng)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        keep = flags & (starts < n_ticks)
        burst_starts = starts[keep]
        burst_lengths = np.minimum(lengths[keep], n_ticks - burst_starts)
        return burst_starts.astype(np.int64), burst_lengths.astype(np.int64)


def correlated_utilization(
    n_members: int,
    n_ticks: int,
    profile: PortProfile,
    participation: float,
    shared_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Utilization for ``n_members`` servers sharing group bursts (Fig 8).

    A master process supplies shared bursts; each member joins each with
    probability ``participation`` and — critically for the Pearson
    correlation the paper measures — participating members share the
    burst's intensity (scatter-gather responses are near-identical in
    size).  Each member additionally runs a private process thinned to
    ``1 - shared_fraction`` so marginal statistics stay at the profile's.

    Returns ``(utilization, hot)`` arrays of shape (n_ticks, n_members).
    """
    if n_members <= 0:
        raise ConfigError("need at least one member")
    generator = OnOffGenerator(profile)
    util = np.zeros((n_ticks, n_members))
    hot = np.zeros((n_ticks, n_members), dtype=bool)

    def paint(member: int, start: int, length: int, intensity: float) -> None:
        stop = start + length
        noise = rng.normal(0.0, profile.intensity.tick_noise, size=stop - start)
        segment = np.clip(intensity + noise, 0.501, 1.0)
        util[start:stop, member] = np.maximum(util[start:stop, member], segment)
        hot[start:stop, member] = True

    if shared_fraction > 0.0 and participation > 0.0 and n_members > 1:
        starts, lengths = generator.generate_mask_runs(n_ticks, rng)
        intensities = profile.intensity.sample(rng, len(starts))
        for index in range(len(starts)):
            members = np.flatnonzero(rng.random(n_members) < participation)
            for member in members:
                paint(int(member), int(starts[index]), int(lengths[index]), float(intensities[index]))

    private_share = 1.0 - shared_fraction if n_members > 1 else 1.0
    if private_share > 0.0:
        for member in range(n_members):
            starts, lengths = generator.generate_mask_runs(n_ticks, rng)
            keep = np.flatnonzero(rng.random(len(starts)) < private_share)
            intensities = profile.intensity.sample(rng, len(keep))
            for intensity, index in zip(intensities, keep):
                paint(member, int(starts[index]), int(lengths[index]), float(intensity))

    for member in range(n_members):
        cold = ~hot[:, member]
        util[cold, member] = profile.cold.sample(rng, int(cold.sum()))
    return util, hot

