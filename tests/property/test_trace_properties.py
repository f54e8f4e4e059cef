"""Property-based tests for CounterTrace and the synthesis round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from factories import regular_trace

from repro.core.samples import CounterTrace, ValueKind
from repro.synth.rackmodel import utilization_to_byte_trace
from repro.units import gbps, us

deltas_strategy = st.lists(st.integers(0, 100_000), min_size=1, max_size=100)


@given(deltas_strategy)
def test_deltas_invert_cumsum(deltas):
    values = np.concatenate(([0], np.cumsum(deltas))).astype(np.int64)
    trace = regular_trace(us(25), values, ValueKind.CUMULATIVE, rate_bps=gbps(10))
    assert list(trace.deltas()) == deltas


@given(deltas_strategy, st.integers(1, 10))
def test_decimation_conserves_total(deltas, factor):
    values = np.concatenate(([0], np.cumsum(deltas))).astype(np.int64)
    trace = regular_trace(us(25), values, ValueKind.CUMULATIVE, rate_bps=gbps(10))
    coarse = trace.decimate(factor)
    if len(coarse) >= 2:
        # total bytes between retained endpoints never changes
        assert coarse.values[-1] - coarse.values[0] == trace.values[
            int((len(trace) - 1) // factor * factor)
        ] - trace.values[0]


utilization_strategy = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=200
).map(np.asarray)


@given(utilization_strategy)
@settings(max_examples=100)
def test_utilization_round_trip(util):
    """synth -> byte trace -> utilization recovers the input closely."""
    trace = utilization_to_byte_trace(util, gbps(10), us(25))
    recovered = trace.utilization()
    assert len(recovered) == len(util)
    assert np.abs(recovered - util).max() < 2e-3  # < 1 byte rounding per tick
    assert np.all(np.diff(trace.values) >= 0)
