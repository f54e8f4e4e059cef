"""Scalar reference oracles for the vectorized analysis and synth kernels.

The analysis pipeline runs on numpy kernels (wrap-corrected deltas, gap
masks, run-length and burst extraction, ECDF construction/evaluation).  This module holds deliberately naive
pure-Python versions of the same computations, kept as executable
specifications.  The synthesizer's draw loops (ECMP link assignment,
burst durations, correlated burst painting) are kept here in their
original one-draw-per-call form; the bulk-draw versions must consume the
same random stream and produce the same bytes.
``tests/property/test_kernel_equivalence.py`` asserts
the kernels match them exactly — dtype and all — on arbitrary inputs, so
the fast paths can be optimized freely without silently changing
results.  ``benchmarks/bench_parallel.py`` times the kernels against them.
The on/off chain's analytic transition probabilities (``implied_p11``,
``implied_p01``) are the references the calibration tests hold the
duration and gap models to.

Production code never imports this module
(``tests/test_determinism_lint.py`` holds that line).
"""

from __future__ import annotations

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import AnalysisError, ConfigError
from repro.synth.calibration import DurationModel, GapModel, PortProfile
from repro.synth.onoff import OnOffGenerator

# -- cumulative-counter deltas ---------------------------------------------------


def scalar_deltas(values: np.ndarray, wrap_bits: int | None = None) -> np.ndarray:
    """Reference per-interval increments with wraparound correction.

    Matches ``np.diff(values, axis=0)`` plus the ``+2**wrap_bits`` fixup
    of negative diffs, element by element.
    """
    values = np.asarray(values)
    n = len(values)
    n_out = max(n - 1, 0)
    # One subtraction fixes the output dtype to numpy's promotion rule,
    # exactly as np.diff would choose it.
    if n >= 2:
        dtype = (values[1:2] - values[0:1]).dtype
    else:
        dtype = values.dtype
    out = np.zeros((n_out,) + values.shape[1:], dtype=dtype)
    if n_out == 0:
        return out
    period = None if wrap_bits is None else dtype.type(1 << int(wrap_bits))
    flat_values = values.reshape(n, -1)
    flat_out = out.reshape(n_out, -1)
    for i in range(n_out):
        for j in range(flat_values.shape[1]):
            delta = flat_values[i + 1, j] - flat_values[i, j]
            if period is not None and delta < 0:
                delta = delta + period
            flat_out[i, j] = delta
    return out


# -- gap masks -------------------------------------------------------------------


def scalar_missing_interval_mask(
    interval_durations_ns: np.ndarray, nominal_interval_ns: int, tolerance: float
) -> np.ndarray:
    """Reference gap mask: interval longer than ``tolerance`` nominals."""
    intervals = np.asarray(interval_durations_ns)
    out = np.zeros(len(intervals), dtype=bool)
    cutoff = tolerance * nominal_interval_ns
    for i in range(len(intervals)):
        out[i] = intervals[i] > cutoff
    return out


def split_at_gaps(
    trace: CounterTrace, nominal_interval_ns: int, tolerance: float = 1.5
) -> list[CounterTrace]:
    """Contiguous sub-traces separated by missing intervals.

    A trace with no gaps comes back whole.  Segment traces are what the
    reference gap-aware extraction analyzes one by one.
    """
    mask = scalar_missing_interval_mask(
        trace.interval_durations_ns(), nominal_interval_ns, tolerance
    )
    if not mask.any():
        return [trace]
    boundaries = np.flatnonzero(mask) + 1  # first sample of each new segment
    segments: list[CounterTrace] = []
    start = 0
    for stop in [*boundaries.tolist(), len(trace)]:
        if stop - start >= 2 or (trace.kind is not ValueKind.CUMULATIVE and stop > start):
            segments.append(
                CounterTrace(
                    timestamps_ns=trace.timestamps_ns[start:stop],
                    values=trace.values[start:stop],
                    kind=trace.kind,
                    name=trace.name,
                    rate_bps=trace.rate_bps,
                    meta=dict(trace.meta),
                )
            )
        start = stop
    return segments


# -- run-length extraction -------------------------------------------------------


def scalar_run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Reference lengths of maximal runs equal to ``value``, in order."""
    mask = np.asarray(mask, dtype=bool)
    lengths: list[int] = []
    current = 0
    for bit in mask.tolist():
        if bit == value:
            current += 1
        elif current:
            lengths.append(current)
            current = 0
    if current:
        lengths.append(current)
    return np.asarray(lengths, dtype=np.int64)


def scalar_interior_run_lengths(mask: np.ndarray, value: bool) -> np.ndarray:
    """Reference run lengths excluding runs touching either boundary."""
    mask = np.asarray(mask, dtype=bool)
    lengths = scalar_run_lengths(mask, value)
    if len(lengths) == 0:
        return lengths
    start = 1 if bool(mask[0]) == value else 0
    stop = len(lengths) - 1 if bool(mask[-1]) == value else len(lengths)
    if stop <= start:
        return np.zeros(0, dtype=np.int64)
    return lengths[start:stop]


def scalar_hot_mask(utilization: np.ndarray, threshold: float) -> np.ndarray:
    """Reference hot/not-hot classification."""
    utilization = np.asarray(utilization, dtype=np.float64)
    out = np.zeros(len(utilization), dtype=bool)
    for i in range(len(utilization)):
        out[i] = utilization[i] > threshold
    return out


# -- gap-aware burst extraction --------------------------------------------------


def count_clipped_bursts(masks: list[np.ndarray]) -> int:
    """Distinct observed bursts touching a gap-adjacent segment edge.

    A burst is clipped when it touches a side of a segment that borders
    a gap (segment interiors are exact; trace start/end are ordinary
    window boundaries, same as the clean analysis).  A burst spanning an
    *entire* segment starts exactly at one split point and ends at the
    next, but it is still one clipped burst.
    """
    n_clipped = 0
    last = len(masks) - 1
    for i, mask in enumerate(masks):
        if len(mask) == 0:
            continue
        left = i > 0 and bool(mask[0])
        right = i < last and bool(mask[-1])
        if left and right and bool(mask.all()):
            n_clipped += 1
        else:
            n_clipped += int(left) + int(right)
    return n_clipped


def gap_aware_core_segmented(
    trace: CounterTrace, nominal: int, threshold: float, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Reference gap-aware burst core: materialize segment traces and pool.

    Returns ``(durations_ns, gaps_ns, pooled_mask, n_segments,
    n_clipped)``, the fields of the production core's result in order.
    """
    segments = split_at_gaps(trace, nominal, tolerance)
    if not segments:
        raise AnalysisError(f"trace {trace.name!r} has no analyzable segment")
    masks = [scalar_hot_mask(segment.utilization(), threshold) for segment in segments]
    durations = np.concatenate([scalar_run_lengths(m, True) * nominal for m in masks])
    gaps = np.concatenate([scalar_interior_run_lengths(m, False) * nominal for m in masks])
    pooled_mask = np.concatenate(masks)
    return durations, gaps, pooled_mask, len(segments), count_clipped_bursts(masks)


# -- empirical CDF ---------------------------------------------------------------


def scalar_sorted(samples: np.ndarray) -> np.ndarray:
    """Reference CDF construction: the sorted sample."""
    samples = np.asarray(samples, dtype=np.float64)
    return np.asarray(sorted(samples.tolist()), dtype=np.float64)


def scalar_ecdf_probs(sorted_samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Reference right-continuous ECDF evaluation: P(X <= x) per query.

    Matches ``np.searchsorted(sorted, xs, side="right") / n``.
    """
    sorted_samples = np.asarray(sorted_samples, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    n = len(sorted_samples)
    values = sorted_samples.tolist()
    probs = []
    for x in xs.reshape(-1).tolist():
        count = 0
        for value in values:
            if value <= x:
                count += 1
            else:
                break
        probs.append(count / n)
    return np.asarray(probs, dtype=np.float64).reshape(xs.shape)


# -- rack synthesis draw loops -------------------------------------------------


def loop_ecmp_weight_segments(
    n_ticks: int,
    n_links: int,
    n_flows: int,
    mean_lifetime_ticks: float,
    weight_shape: float,
    rng: np.random.Generator,
    link_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Reference churning-ECMP shares: one ``rng.choice(p=...)`` per call."""
    if link_weights is None:
        probabilities = np.full(n_links, 1.0 / n_links)
    else:
        link_weights = np.asarray(link_weights, dtype=np.float64)
        if link_weights.shape != (n_links,) or link_weights.min() < 0:
            raise ConfigError("link_weights must be non-negative, one per link")
        total = link_weights.sum()
        if total <= 0:
            raise ConfigError("at least one link must have positive weight")
        probabilities = link_weights / total

    def choose_links(count: int) -> np.ndarray:
        return rng.choice(n_links, size=count, p=probabilities)

    links = choose_links(n_flows)
    weights = rng.gamma(weight_shape, 1.0, size=n_flows)
    deaths = rng.exponential(mean_lifetime_ticks, size=n_flows)
    shares = np.empty((n_ticks, n_links))
    t = 0
    while t < n_ticks:
        next_death = float(deaths.min())
        segment_end = min(n_ticks, int(np.ceil(next_death)) + t) if next_death > 0 else t + 1
        segment_end = max(segment_end, t + 1)
        link_weights = np.bincount(links, weights=weights, minlength=n_links)
        total = link_weights.sum()
        shares[t:segment_end] = link_weights / total if total > 0 else 1.0 / n_links
        elapsed = segment_end - t
        deaths -= elapsed
        dead = deaths <= 0
        n_dead = int(dead.sum())
        if n_dead:
            links[dead] = choose_links(n_dead)
            weights[dead] = rng.gamma(weight_shape, 1.0, size=n_dead)
            deaths[dead] = rng.exponential(mean_lifetime_ticks, size=n_dead)
        t = segment_end
    return shares


def loop_duration_sample(model: DurationModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Reference burst durations: one masked pass per head-pmf entry."""
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    u = rng.random(n)
    out = np.zeros(n, dtype=np.int64)
    cum = 0.0
    remaining = np.ones(n, dtype=bool)
    for k, p in enumerate(model.head):
        cum += p
        hit = remaining & (u < cum)
        out[hit] = k + 1
        remaining &= ~hit
    n_tail = int(remaining.sum())
    if n_tail:
        extra = rng.geometric(1.0 - model.tail_decay, size=n_tail) - 1
        out[remaining] = len(model.head) + 1 + extra
    return out


def loop_correlated_utilization(
    n_members: int,
    n_ticks: int,
    profile: PortProfile,
    participation: float,
    shared_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference correlated utilization: one ``paint`` per (burst, member)."""
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


# -- on/off chain analytics --------------------------------------------------------


def implied_p11(model: DurationModel) -> float:
    """p(hot | hot) of the on/off chain whose burst durations follow
    ``model``: a geometric holding time with mean E[D] has p11 = 1 - 1/E[D]."""
    return 1.0 - 1.0 / model.mean()


def implied_p01(model: GapModel) -> float:
    """p(hot | cold) of the on/off chain whose gaps follow ``model``: 1/E[G]."""
    return 1.0 / model.mean()
