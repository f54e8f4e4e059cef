"""Whole-rack synthetic window generation.

Produces everything the cross-port analyses need for one campaign
window: per-downlink utilization with the application's correlation
structure (Fig 8), per-uplink egress/ingress utilization with flow-level
ECMP imbalance (Fig 7), hot-sample directionality (Fig 9), and counter
traces (byte counters and packet-size histograms) in the exact format
the real sampler produces.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS, AppProfile
from repro.synth.onoff import OnOffGenerator, correlated_utilization
from repro.units import NS_PER_S, gbps


def _ecmp_weight_segments(
    n_ticks: int,
    n_links: int,
    n_flows: int,
    mean_lifetime_ticks: float,
    weight_shape: float,
    rng: np.random.Generator,
    link_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-tick per-link traffic shares under churning flow-level ECMP.

    Simulates ``n_flows`` flow aggregates, each hashed to one link with a
    Gamma-distributed weight; when a flow ends (exponential lifetime) a
    fresh flow replaces it.  Returns (n_ticks, n_links) shares summing to
    1 per tick.

    ``link_weights`` biases the hash toward healthy links (WCMP-style
    reweighting after failures): a weight of 0 removes a link from the
    hash entirely, fractional weights shrink its share of flows.
    """
    if n_flows <= 0:
        raise ConfigError("n_flows must be positive")
    if link_weights is None:
        probabilities = np.full(n_links, 1.0 / n_links)
    else:
        link_weights = np.asarray(link_weights, dtype=np.float64)
        finite = np.isfinite(link_weights).all()
        if link_weights.shape != (n_links,) or not finite or link_weights.min() < 0:
            raise ConfigError("link_weights must be finite and non-negative, one per link")
        total = link_weights.sum()
        if total <= 0:
            raise ConfigError("at least one link must have positive weight")
        probabilities = link_weights / total
    # Generator.choice(n_links, p=probabilities) without its per-call checks.
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    link_cdf = cdf.tolist()

    # One iteration per flow death over a few dozen flows at most: the
    # bookkeeping lives on Python lists, which beat a NumPy call per step.
    links = cdf.searchsorted(rng.random(n_flows), side="right").tolist()
    weights = rng.gamma(weight_shape, 1.0, size=n_flows).tolist()
    deaths = rng.exponential(mean_lifetime_ticks, size=n_flows).tolist()
    # Raw doubles, one n_links row per segment: a list would keep a float
    # object per entry alive and leave fragmented heap behind.
    loads = array("d")
    lengths: list[int] = []
    t = 0
    while t < n_ticks:
        next_death = min(deaths)
        elapsed = min(n_ticks - t, math.ceil(next_death)) if next_death > 0 else 1
        # Summed in flow-index order, as np.bincount does.
        link_load = [0.0] * n_links
        for link, weight in zip(links, weights):
            link_load[link] += weight
        loads.extend(link_load)
        lengths.append(elapsed)
        deaths = [death - elapsed for death in deaths]
        dead = [flow for flow, death in enumerate(deaths) if death <= 0]
        if dead:
            count = len(dead)
            draws = zip(
                dead,
                rng.random(count).tolist(),
                rng.gamma(weight_shape, 1.0, size=count).tolist(),
                rng.exponential(mean_lifetime_ticks, size=count).tolist(),
            )
            for flow, u, weight, lifetime in draws:
                links[flow] = bisect_right(link_cdf, u)
                weights[flow] = weight
                deaths[flow] = lifetime
        t += elapsed
    load_rows = np.frombuffer(loads).reshape(-1, n_links)
    totals = load_rows.sum(axis=1, keepdims=True)
    rows = np.full_like(load_rows, 1.0 / n_links)
    np.divide(load_rows, totals, out=rows, where=totals > 0)
    return np.repeat(rows, lengths, axis=0)


@dataclass(slots=True)
class _UplinkDraws:
    """What a synthesized window needs to draw its uplink matrices later."""

    synthesizer: RackSynthesizer
    rng: np.random.Generator


class RackWindow:
    """One campaign window for a whole rack.

    A measured window is built from all three matrices.  A synthesized
    window (``uplink_draws`` given) holds its downlinks and draws each
    uplink matrix from its own generator on first read, egress before
    ingress as an eager draw would: reading ingress first draws egress
    first, so the bytes never depend on the read order.
    """

    __slots__ = (
        "app", "tick_ns", "downlink_rate_bps", "uplink_rate_bps", "downlink_util",
        "n_uplinks", "_uplinks", "_uplink_draws",
    )

    def __init__(
        self,
        app: str,
        tick_ns: int,
        downlink_rate_bps: float,
        uplink_rate_bps: float,
        downlink_util: np.ndarray,  # (n_ticks, n_downlinks)
        uplink_egress_util: np.ndarray | None = None,  # (n_ticks, n_uplinks)
        uplink_ingress_util: np.ndarray | None = None,  # (n_ticks, n_uplinks)
        uplink_draws: _UplinkDraws | None = None,
    ) -> None:
        self.app = app
        self.tick_ns = tick_ns
        self.downlink_rate_bps = downlink_rate_bps
        self.uplink_rate_bps = uplink_rate_bps
        self.downlink_util = downlink_util
        self._uplink_draws = uplink_draws
        if uplink_draws is not None:
            self.n_uplinks = uplink_draws.synthesizer.n_uplinks
            self._uplinks: list[np.ndarray] = []
        elif uplink_egress_util is None or uplink_ingress_util is None:
            raise ConfigError("a measured rack window needs both uplink matrices")
        else:
            self.n_uplinks = uplink_egress_util.shape[1]
            self._uplinks = [uplink_egress_util, uplink_ingress_util]

    def _uplink(self, index: int) -> np.ndarray:
        draws = self._uplink_draws
        while len(self._uplinks) <= index:
            assert draws is not None  # a measured window holds both matrices
            self._uplinks.append(draws.synthesizer.uplink_matrix(self.n_ticks, draws.rng))
        return self._uplinks[index]

    @property
    def uplink_egress_util(self) -> np.ndarray:
        """(n_ticks, n_uplinks) ToR-to-fabric utilization."""
        return self._uplink(0)

    @property
    def uplink_ingress_util(self) -> np.ndarray:
        """(n_ticks, n_uplinks) fabric-to-ToR utilization."""
        return self._uplink(1)

    @property
    def n_ticks(self) -> int:
        return self.downlink_util.shape[0]

    @property
    def n_downlinks(self) -> int:
        return self.downlink_util.shape[1]

    def all_egress_util(self) -> np.ndarray:
        """(n_ticks, n_down + n_up) egress utilization of every port."""
        return np.concatenate([self.downlink_util, self.uplink_egress_util], axis=1)


def utilization_to_byte_trace(
    utilization: np.ndarray,
    rate_bps: float,
    tick_ns: int,
    name: str = "",
    start_ns: int = 0,
) -> CounterTrace:
    """Convert per-tick utilization into a cumulative byte-counter trace.

    The result has n_ticks + 1 samples (the counter is read at the start
    and end of every interval), exactly like the sampler's output on a
    miss-free run.
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    # In place, one operation at a time in the order of
    # ``utilization * rate_bps * tick_ns / NS_PER_S / 8.0``: the same
    # bytes with fewer temporaries.
    bytes_per_tick = utilization * rate_bps
    bytes_per_tick *= tick_ns
    bytes_per_tick /= NS_PER_S
    bytes_per_tick /= 8.0
    cumulative = np.empty(len(bytes_per_tick) + 1)
    cumulative[0] = 0.0
    np.cumsum(bytes_per_tick, out=cumulative[1:])
    del bytes_per_tick
    values = np.round(cumulative, out=cumulative).astype(np.int64)
    del cumulative
    timestamps = np.arange(len(values), dtype=np.int64)
    timestamps *= tick_ns
    timestamps += start_ns
    return CounterTrace(
        timestamps_ns=timestamps,
        values=values,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=rate_bps,
    )


def synthesize_size_histogram(
    utilization: np.ndarray,
    hot: np.ndarray,
    profile: AppProfile,
    rate_bps: float,
    tick_ns: int,
    rng: np.random.Generator,
    name: str = "tx_size_hist",
    start_ns: int = 0,
) -> CounterTrace:
    """Cumulative packet-size histogram trace consistent with a byte trace.

    Packet counts per tick follow the regime's mean packet size; bin
    splits are Poisson draws around the regime's histogram shares (a
    faithful approximation of per-packet multinomial sampling at these
    counts).
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    hot = np.asarray(hot, dtype=bool)
    bytes_per_tick = utilization * rate_bps * tick_ns / NS_PER_S / 8.0
    mean_size = np.where(hot, profile.mean_packet_inside, profile.mean_packet_outside)
    packets_per_tick = bytes_per_tick / mean_size
    mix_out = np.asarray(profile.size_mix_outside)
    mix_in = np.asarray(profile.size_mix_inside)
    shares = np.where(hot[:, None], mix_in[None, :], mix_out[None, :])
    expected = packets_per_tick[:, None] * shares
    counts = rng.poisson(expected)
    cumulative = np.concatenate(
        [np.zeros((1, counts.shape[1]), dtype=np.int64), np.cumsum(counts, axis=0)]
    )
    timestamps = start_ns + tick_ns * np.arange(cumulative.shape[0], dtype=np.int64)
    return CounterTrace(
        timestamps_ns=timestamps,
        values=cumulative,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=rate_bps,
    )


class RackSynthesizer:
    """Synthesizes whole-rack windows for one application profile."""

    def __init__(
        self,
        profile: AppProfile | str,
        n_downlinks: int = 16,
        n_uplinks: int = 4,
        downlink_rate_bps: float = gbps(10),
        uplink_rate_bps: float = gbps(10),
        tick_ns: int = BASE_TICK_NS,
    ) -> None:
        if isinstance(profile, str):
            try:
                profile = APP_PROFILES[profile]
            except KeyError:
                raise ConfigError(
                    f"unknown app {profile!r}; choose from {sorted(APP_PROFILES)}"
                ) from None
        if n_downlinks <= 0 or n_uplinks <= 0:
            raise ConfigError("need at least one downlink and uplink")
        self.profile = profile
        self.n_downlinks = n_downlinks
        self.n_uplinks = n_uplinks
        self.downlink_rate_bps = downlink_rate_bps
        self.uplink_rate_bps = uplink_rate_bps
        self.tick_ns = tick_ns

    # -- pieces --------------------------------------------------------------

    def downlink_matrix(self, n_ticks: int, rng: np.random.Generator) -> np.ndarray:
        """(n_ticks, n_downlinks) utilization with correlation structure."""
        corr = self.profile.correlation
        util = np.empty((n_ticks, self.n_downlinks), dtype=np.float64)
        group_size = min(corr.group_size, self.n_downlinks)
        for start in range(0, self.n_downlinks, group_size):
            size = min(group_size, self.n_downlinks - start)
            util[:, start : start + size], _hot = correlated_utilization(
                n_members=size,
                n_ticks=n_ticks,
                profile=self.profile.downlink,
                participation=corr.participation,
                shared_fraction=corr.shared_fraction,
                rng=rng,
            )
        return util

    def uplink_matrix(
        self,
        n_ticks: int,
        rng: np.random.Generator,
        capacity_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """(n_ticks, n_uplinks) utilization for one direction.

        A per-link baseline activity process (the uplink port profile)
        modulated by churning ECMP share multipliers:
        ``util_link = baseline * clip(n_uplinks * share, 0, 2) * noise``.
        The multiplier has mean ~1, so the baseline's hot fraction is
        approximately the per-link hot fraction, while the share spread
        produces Fig 7's dispersion.

        ``capacity_factors`` (from
        :meth:`repro.netsim.clos.ClosFabric.uplink_capacity_factors`)
        injects failure asymmetry: flows avoid degraded paths and the
        survivors absorb the displaced load.
        """
        generator = OnOffGenerator(self.profile.uplink)
        baseline = generator.generate(n_ticks, rng).utilization
        ecmp = self.profile.ecmp
        shares = _ecmp_weight_segments(
            n_ticks,
            self.n_uplinks,
            ecmp.n_flows,
            ecmp.mean_lifetime_ticks,
            ecmp.weight_shape,
            rng,
            link_weights=capacity_factors,
        )
        multiplier = np.clip(self.n_uplinks * shares, 0.0, 2.0)
        noise = rng.lognormal(0.0, ecmp.tick_noise, size=(n_ticks, self.n_uplinks))
        util = baseline[:, None] * multiplier * noise
        return np.clip(util, 0.0, 1.0)

    # -- full window -----------------------------------------------------------

    def synthesize(
        self, n_ticks: int, rng: np.random.Generator, activity: float = 1.0
    ) -> RackWindow:
        """One rack window; ``activity`` scales burst frequency (diurnal).

        The downlinks are drawn now.  The window owns ``rng`` and draws
        its uplink matrices from it when they are first read, so pass a
        generator nothing else draws from afterwards.
        """
        if n_ticks <= 0:
            raise ConfigError("n_ticks must be positive")
        synthesizer = self
        if activity != 1.0:
            synthesizer = RackSynthesizer(
                self.profile.with_activity(activity),
                n_downlinks=self.n_downlinks,
                n_uplinks=self.n_uplinks,
                downlink_rate_bps=self.downlink_rate_bps,
                uplink_rate_bps=self.uplink_rate_bps,
                tick_ns=self.tick_ns,
            )
        return RackWindow(
            app=self.profile.name,
            tick_ns=self.tick_ns,
            downlink_rate_bps=self.downlink_rate_bps,
            uplink_rate_bps=self.uplink_rate_bps,
            downlink_util=synthesizer.downlink_matrix(n_ticks, rng),
            uplink_draws=_UplinkDraws(synthesizer, rng),
        )
