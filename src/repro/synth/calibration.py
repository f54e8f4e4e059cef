"""Per-application calibration of the synthetic trace generator.

Every number here traces to a statement in the paper:

* Burst-duration models are fit so the per-tick hot process has the
  Table 2 transition probabilities (p11 = 1 - 1/E[D]) while matching
  Fig 3's duration CDF landmarks (Web p90 = 2 ticks = 50 µs; >60 % of
  Web/Cache bursts are single-period; Hadoop has the longest tail but
  almost all bursts end within 0.5 ms).
* Gap models match Table 2's p01 (= 1/E[G]) in the mean while matching
  Fig 4's shape: ~40 % of Web/Cache gaps under 100 µs, tails out to
  hundreds of milliseconds, decisively non-exponential.
* Intensity mixtures reproduce Fig 6: long-tailed utilization,
  multimodal for Cache/Hadoop, Hadoop near line rate ~10 % of periods.
* Per-direction hot fractions reproduce Fig 9's uplink/downlink split
  (Web server-biased, Hadoop 18 % uplink, Cache uplink-majority) while
  the random-port mix stays consistent with Table 2.
* ECMP flow counts/churn reproduce Fig 7 (Hadoop "longer flows, less
  balanced"; balanced again at 1 s).
* Buffer response curves reproduce Fig 10's shape: occupancy grows with
  simultaneous hot ports, steepest for Hadoop, and levels off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: The paper's base sampling tick (byte counters): 25 microseconds.
BASE_TICK_NS = 25_000


@dataclass(frozen=True)
class DurationModel:
    """Burst-duration distribution in ticks: explicit head pmf plus a
    geometric tail continuing after the head."""

    head: tuple[float, ...]
    tail_decay: float

    def __post_init__(self) -> None:
        if not self.head or any(p < 0 for p in self.head):
            raise ConfigError("head pmf must be non-empty and non-negative")
        if sum(self.head) > 1.0 + 1e-9:
            raise ConfigError("head pmf mass exceeds 1")
        if not 0.0 <= self.tail_decay < 1.0:
            raise ConfigError("tail decay must be in [0, 1)")

    @property
    def tail_mass(self) -> float:
        return max(0.0, 1.0 - sum(self.head))

    def mean(self) -> float:
        """E[D] in ticks; the generator's implied p11 is 1 - 1/E[D]."""
        head_mean = sum((k + 1) * p for k, p in enumerate(self.head))
        start = len(self.head) + 1
        q = self.tail_decay
        # tail: P(D = start + j) = tail_mass * (1-q) * q^j
        tail_mean = self.tail_mass * (start + q / (1.0 - q)) if self.tail_mass else 0.0
        return head_mean + tail_mean

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` burst durations (ticks, >= 1)."""
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        # 1 + the first head index whose cumulative mass exceeds u
        out = np.cumsum(self.head).searchsorted(rng.random(n), side="right") + 1
        tail = out > len(self.head)
        n_tail = int(tail.sum())
        if n_tail:
            out[tail] += rng.geometric(1.0 - self.tail_decay, size=n_tail) - 1
        return out


@dataclass(frozen=True)
class GapModel:
    """Inter-burst gap distribution in ticks: a mixture of a small
    lognormal (back-to-back µbursts) and a large lognormal (idle spells
    of tens to hundreds of milliseconds)."""

    p_small: float
    small_median: float
    small_sigma: float
    large_median: float
    large_sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_small <= 1.0:
            raise ConfigError("p_small must be a probability")
        if min(self.small_median, self.large_median) <= 0:
            raise ConfigError("medians must be positive")

    def mean(self) -> float:
        """E[G] in ticks; the generator's implied p01 is 1/E[G]."""
        small = self.small_median * math.exp(self.small_sigma**2 / 2.0)
        large = self.large_median * math.exp(self.large_sigma**2 / 2.0)
        return self.p_small * small + (1.0 - self.p_small) * large

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        small = rng.random(n) < self.p_small
        out = np.empty(n)
        n_small = int(small.sum())
        out[small] = rng.lognormal(
            math.log(self.small_median), self.small_sigma, size=n_small
        )
        out[~small] = rng.lognormal(
            math.log(self.large_median), self.large_sigma, size=n - n_small
        )
        return np.maximum(1, np.round(out)).astype(np.int64)

    def with_activity(self, activity: float) -> "GapModel":
        """Scale the idle spells by 1/activity (diurnal load variation).

        Burst shape is an application property; how *often* bursts occur
        tracks offered load, so activity stretches only the large
        (idle-spell) mixture component.
        """
        if activity <= 0:
            raise ConfigError("activity must be positive")
        return GapModel(
            p_small=self.p_small,
            small_median=self.small_median,
            small_sigma=self.small_sigma,
            large_median=self.large_median / activity,
            large_sigma=self.large_sigma,
        )


@dataclass(frozen=True)
class IntensityModel:
    """Within-burst utilization: a mixture of uniform components above
    the hot threshold.  One intensity per burst plus small per-tick
    noise, matching the paper's observation that bursts are 'generally
    intense' (Sec 5.4)."""

    components: tuple[tuple[float, float, float], ...]  # (weight, low, high)
    tick_noise: float = 0.03

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigError("need at least one intensity component")
        for weight, low, high in self.components:
            if not math.isfinite(weight) or weight < 0 or not 0.5 <= low <= high <= 1.0:
                raise ConfigError(f"bad intensity component {(weight, low, high)}")
        weights, lows, highs = np.array(self.components, dtype=np.float64).T
        if weights.sum() <= 0:
            raise ConfigError("intensity component weights must sum to a positive value")
        # Generator.choice(p=weights / weights.sum()) without its per-call checks.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_lows", lows)
        object.__setattr__(self, "_spans", highs - lows)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0)
        which = self._cdf.searchsorted(rng.random(n), side="right")
        return self._lows[which] + rng.random(n) * self._spans[which]


@dataclass(frozen=True)
class ColdUtilModel:
    """Utilization outside bursts: lognormal base clipped below the hot
    threshold, with an optional secondary mode (Cache/Hadoop are
    multimodal at 25 µs, Sec 5.4)."""

    median: float
    sigma: float
    bump_weight: float = 0.0
    bump_center: float = 0.35
    bump_width: float = 0.08
    zero_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ConfigError("bad cold-utilization parameters")
        if not 0.0 <= self.bump_weight <= 1.0 or not 0.0 <= self.zero_weight <= 1.0:
            raise ConfigError("weights must be probabilities")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0)
        out = rng.lognormal(math.log(self.median), self.sigma, size=n)
        np.clip(out, 0.0, 0.495, out=out)
        if self.bump_weight > 0:
            in_bump = rng.random(n) < self.bump_weight
            bump = rng.normal(self.bump_center, self.bump_width, size=int(in_bump.sum()))
            out[in_bump] = np.clip(bump, 0.0, 0.495)
        if self.zero_weight > 0:
            idle = rng.random(n) < self.zero_weight
            out[idle] = 0.0
        return out


@dataclass(frozen=True)
class PortProfile:
    """Full single-port utilization process."""

    duration: DurationModel
    gap: GapModel
    intensity: IntensityModel
    cold: ColdUtilModel

    @property
    def hot_fraction(self) -> float:
        """Stationary fraction of hot ticks, E[D] / (E[D] + E[G])."""
        d = self.duration.mean()
        return d / (d + self.gap.mean())

    def with_activity(self, activity: float) -> "PortProfile":
        """Same bursts, scaled burst frequency (diurnal variation)."""
        return PortProfile(
            duration=self.duration,
            gap=self.gap.with_activity(activity),
            intensity=self.intensity,
            cold=self.cold,
        )


@dataclass(frozen=True)
class EcmpFlowModel:
    """Flow-level ECMP imbalance parameters (Fig 7).

    ``n_flows`` concurrent flow aggregates share the four uplinks;
    each lives ~``mean_lifetime_ticks`` then is replaced (new hash, new
    weight).  Fewer, longer flows => worse short-term balance.
    """

    n_flows: int
    mean_lifetime_ticks: float
    weight_shape: float = 1.0
    tick_noise: float = 0.25

    def __post_init__(self) -> None:
        if self.n_flows <= 0 or self.mean_lifetime_ticks <= 0:
            raise ConfigError("bad ECMP flow model")


@dataclass(frozen=True)
class CorrelationModel:
    """Downlink cross-server structure (Fig 8).

    ``group_size`` servers share scatter-gather driven bursts with
    probability ``participation`` each; ``shared_fraction`` of a
    member's bursts come from the group process (the rest are its own).
    """

    group_size: int
    participation: float
    shared_fraction: float

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ConfigError("group size must be positive")
        if not 0.0 <= self.participation <= 1.0:
            raise ConfigError("participation must be a probability")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigError("shared_fraction must be a probability")


@dataclass(frozen=True)
class BufferResponse:
    """Saturating response of peak shared-buffer occupancy to the number
    of simultaneously hot ports (Fig 10)."""

    base: float
    scale: float
    saturation_ports: float
    noise_sigma: float

    def __post_init__(self) -> None:
        if self.saturation_ports <= 0 or self.scale < 0 or self.base < 0:
            raise ConfigError("bad buffer response")


@dataclass(frozen=True)
class AppProfile:
    """Everything the synthesiser needs for one application rack."""

    name: str
    downlink: PortProfile
    uplink: PortProfile
    ecmp: EcmpFlowModel
    correlation: CorrelationModel
    buffer: BufferResponse
    #: normalised packet-size histogram over the 6 ASIC bins,
    #: outside and inside bursts (Fig 5)
    size_mix_outside: tuple[float, ...]
    size_mix_inside: tuple[float, ...]
    #: mean wire bytes per packet in each regime (for count synthesis)
    mean_packet_outside: float
    mean_packet_inside: float

    def with_activity(self, activity: float) -> "AppProfile":
        """Profile under scaled offered load (diurnal variation)."""
        return AppProfile(
            name=self.name,
            downlink=self.downlink.with_activity(activity),
            uplink=self.uplink.with_activity(activity),
            ecmp=self.ecmp,
            correlation=self.correlation,
            buffer=self.buffer,
            size_mix_outside=self.size_mix_outside,
            size_mix_inside=self.size_mix_inside,
            mean_packet_outside=self.mean_packet_outside,
            mean_packet_inside=self.mean_packet_inside,
        )


def _web_profile() -> AppProfile:
    duration = DurationModel(head=(0.75, 0.16), tail_decay=0.62)
    # E[D] ~ 1.49 ticks -> p11 ~ 0.33 (paper: 0.359); p90 = 2 ticks = 50 us.
    down_gap = GapModel(
        p_small=0.45, small_median=2.0, small_sigma=0.8,
        large_median=82.0, large_sigma=2.0,
    )  # E[G] ~ 335 ticks -> p01 ~ 0.003 (paper: 0.003)
    up_gap = GapModel(
        p_small=0.35, small_median=2.5, small_sigma=0.8,
        large_median=700.0, large_sigma=2.0,
    )  # rarely-hot aggregate: Fig 9 shows Web bursts are server-biased
    intensity = IntensityModel(
        components=((0.70, 0.52, 0.85), (0.25, 0.85, 0.98), (0.05, 0.98, 1.0))
    )
    return AppProfile(
        name="web",
        downlink=PortProfile(
            duration=duration, gap=down_gap, intensity=intensity,
            cold=ColdUtilModel(median=0.02, sigma=1.1, zero_weight=0.10),
        ),
        uplink=PortProfile(
            duration=duration, gap=up_gap, intensity=intensity,
            cold=ColdUtilModel(median=0.025, sigma=0.8),
        ),
        ecmp=EcmpFlowModel(
            n_flows=20, mean_lifetime_ticks=150.0, weight_shape=2.0, tick_noise=0.20
        ),
        correlation=CorrelationModel(group_size=1, participation=0.0, shared_fraction=0.0),
        buffer=BufferResponse(base=0.02, scale=0.38, saturation_ports=3.0, noise_sigma=0.40),
        size_mix_outside=(0.30, 0.22, 0.16, 0.12, 0.08, 0.12),
        size_mix_inside=(0.24, 0.18, 0.14, 0.12, 0.10, 0.22),
        # Web: ~60 % relative increase in full-MTU share inside bursts
        mean_packet_outside=420.0,
        mean_packet_inside=560.0,
    )


def _cache_profile() -> AppProfile:
    duration = DurationModel(
        head=(0.62, 0.07, 0.05, 0.04), tail_decay=0.84
    )
    # E[D] ~ 3.3 ticks -> p11 ~ 0.70 (paper: 0.721); >60 % single-period;
    # p90 ~ 8 ticks = 200 us.
    down_gap = GapModel(
        p_small=0.48, small_median=2.0, small_sigma=0.9,
        large_median=29.0, large_sigma=1.9,
    )  # hot fraction ~ 3.5 %
    up_gap = GapModel(
        p_small=0.50, small_median=1.8, small_sigma=0.9,
        large_median=8.3, large_sigma=1.7,
    )  # hot fraction ~ 15 %: uplink-bound (Fig 9)
    intensity = IntensityModel(
        components=((0.45, 0.52, 0.80), (0.40, 0.80, 0.97), (0.15, 0.97, 1.0))
    )
    return AppProfile(
        name="cache",
        downlink=PortProfile(
            duration=duration, gap=down_gap, intensity=intensity,
            cold=ColdUtilModel(median=0.04, sigma=1.0, bump_weight=0.12, bump_center=0.30),
        ),
        uplink=PortProfile(
            duration=duration, gap=up_gap, intensity=intensity,
            cold=ColdUtilModel(median=0.08, sigma=0.9, bump_weight=0.15, bump_center=0.35),
        ),
        ecmp=EcmpFlowModel(
            n_flows=8, mean_lifetime_ticks=300.0, weight_shape=1.5, tick_noise=0.25
        ),
        correlation=CorrelationModel(group_size=4, participation=0.9, shared_fraction=0.9),
        buffer=BufferResponse(base=0.03, scale=0.35, saturation_ports=3.0, noise_sigma=0.40),
        size_mix_outside=(0.34, 0.22, 0.14, 0.07, 0.03, 0.20),
        size_mix_inside=(0.31, 0.21, 0.13, 0.07, 0.04, 0.24),
        # Cache: ~20 % relative large-packet increase; small still dominates
        mean_packet_outside=380.0,
        mean_packet_inside=430.0,
    )


def _hadoop_profile() -> AppProfile:
    duration = DurationModel(head=(0.345,), tail_decay=0.655)
    # plain geometric with p11 = 0.655 (paper's Table 2 value exactly)
    down_gap = GapModel(
        p_small=0.30, small_median=2.5, small_sigma=0.9,
        large_median=9.0, large_sigma=1.6,
    )  # hot fraction ~ 11 % (Table 2 implies 10.9 %)
    up_gap = GapModel(
        p_small=0.30, small_median=2.5, small_sigma=0.9,
        large_median=13.0, large_sigma=1.6,
    )  # lower per-link activity: Fig 9's 18 % uplink share of hot samples
    intensity = IntensityModel(
        components=((0.20, 0.52, 0.90), (0.80, 0.93, 1.0))
    )
    return AppProfile(
        name="hadoop",
        downlink=PortProfile(
            duration=duration, gap=down_gap, intensity=intensity,
            cold=ColdUtilModel(median=0.12, sigma=0.8, bump_weight=0.10, bump_center=0.40),
        ),
        uplink=PortProfile(
            duration=duration, gap=up_gap, intensity=intensity,
            cold=ColdUtilModel(
                median=0.12, sigma=0.6, bump_weight=0.05, bump_center=0.32, bump_width=0.06
            ),
        ),
        ecmp=EcmpFlowModel(
            n_flows=5, mean_lifetime_ticks=500.0, weight_shape=0.7, tick_noise=0.25
        ),
        correlation=CorrelationModel(group_size=16, participation=0.40, shared_fraction=0.50),
        buffer=BufferResponse(base=0.15, scale=0.90, saturation_ports=10.0, noise_sigma=0.35),
        size_mix_outside=(0.05, 0.03, 0.02, 0.02, 0.03, 0.85),
        size_mix_inside=(0.03, 0.02, 0.02, 0.02, 0.03, 0.88),
        # Hadoop: almost all MTU in both regimes (Fig 5)
        mean_packet_outside=1280.0,
        mean_packet_inside=1340.0,
    )


APP_PROFILES: dict[str, AppProfile] = {
    "web": _web_profile(),
    "cache": _cache_profile(),
    "hadoop": _hadoop_profile(),
}
