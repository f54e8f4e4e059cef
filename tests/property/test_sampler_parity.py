"""Live and timing-only sampling must agree on miss accounting.

Both modes walk the same polling loop — live mode through the event
simulator, timing-only mode as a vectorised walk — and share the
window-boundary clamp in ``overrun_covered_instants``.  For identical
latency streams their ``scheduled``/``taken``/``missed`` tallies must be
equal, whatever the latency pattern.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HighResSampler, SamplerConfig
from repro.core.counters import CounterBinding, CounterKind, CounterSpec
from repro.netsim import Simulator
from repro.units import us

INTERVAL = us(25)


class ScriptedTiming:
    """Timing model replaying a fixed latency sequence (cycled)."""

    def __init__(self, latencies):
        self.latencies = [int(x) for x in latencies]
        self._next = 0

    def _take(self, n):
        out = [
            self.latencies[(self._next + k) % len(self.latencies)] for k in range(n)
        ]
        self._next += n
        return out

    def group_read_latency_ns(self, specs, rng, dedicated_core=True):
        return self._take(1)[0]

    def group_read_latencies_ns(self, specs, n, rng, dedicated_core=True):
        return np.asarray(self._take(n), dtype=np.int64)


def make_sampler(latencies):
    spec = CounterSpec(name="p.tx_bytes", kind=CounterKind.BYTE, rate_bps=10e9)
    return HighResSampler(
        SamplerConfig(interval_ns=INTERVAL, timing=ScriptedTiming(latencies)),
        [CounterBinding(spec=spec, read=lambda: 0)],
        rng=0,
    )


# Latencies from sub-interval up to several intervals, including the
# exact boundary INTERVAL itself.
latency_stream = st.lists(
    st.integers(1, 5 * INTERVAL), min_size=1, max_size=64
)


@given(latency_stream, st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_modes_agree_on_scheduled_taken_missed(latencies, n_instants):
    duration = INTERVAL * n_instants
    live = make_sampler(latencies).run_in_sim(Simulator(seed=0), duration)
    timing = make_sampler(latencies).simulate_timing(duration)
    assert live.timing.scheduled == timing.scheduled
    assert live.timing.taken == timing.taken
    assert live.timing.missed == timing.missed


@given(latency_stream, st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_accounting_invariants(latencies, n_instants):
    stats = make_sampler(latencies).simulate_timing(INTERVAL * n_instants)
    # Every grid instant is accounted for, exactly once.
    assert stats.scheduled == n_instants
    assert stats.taken + stats.missed >= stats.scheduled
    assert stats.missed <= stats.scheduled
    assert 0.0 <= stats.miss_rate <= 1.0
