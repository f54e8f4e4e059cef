"""Trace archive persistence tests."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from factories import regular_trace

from repro.core.samples import CounterTrace, ValueKind
from repro.core.traceio import _crc, load_traces, save_traces
from repro.errors import CorruptTraceError, DataFormatError
from repro.faults import FaultInjector, FaultPlan
from repro.telemetry.metrics import scoped_registry
from repro.units import gbps, seconds, us

#: Version-1 and version-2 archives written by the version-2 writer;
#: ``fixture_traces`` rebuilds what they hold.
FIXTURES = Path(__file__).resolve().parents[1] / "data" / "traceio"


def sample_traces():
    byte_trace = regular_trace(
        us(25),
        np.cumsum(np.arange(10)).astype(np.int64),
        ValueKind.CUMULATIVE,
        name="down0.tx_bytes",
        rate_bps=gbps(10),
    )
    gauge = regular_trace(
        us(50),
        np.array([3, 9, 1], dtype=np.int64),
        ValueKind.GAUGE,
        name="shared_buffer.peak",
    )
    hist = regular_trace(
        us(25),
        np.cumsum(np.ones((4, 6), dtype=np.int64), axis=0),
        ValueKind.CUMULATIVE,
        name="down0.tx_size_hist",
    )
    return {t.name: t for t in (byte_trace, gauge, hist)}


def fixture_traces():
    """The traces stored in ``archive_v1.npz`` and ``archive_v2.npz``."""
    tx = regular_trace(
        us(25),
        np.cumsum(np.arange(10, dtype=np.int64) * 1500),
        ValueKind.CUMULATIVE,
        name="down0.tx_bytes",
        rate_bps=gbps(10),
        start_ns=seconds(3600),
    )
    wrapped = regular_trace(
        us(25),
        np.array([2**32 - 3000, 2**32 - 1500, 1200, 2700], dtype=np.int64),
        ValueKind.CUMULATIVE,
        name="up0.rx_bytes",
        rate_bps=gbps(40),
    )
    gauge = regular_trace(
        us(50),
        np.array([3, 9, 1], dtype=np.int64),
        ValueKind.GAUGE,
        name="shared_buffer.peak",
    )
    hist = regular_trace(
        us(25),
        np.cumsum(np.arange(24, dtype=np.int64).reshape(4, 6), axis=0),
        ValueKind.CUMULATIVE,
        name="down0.tx_size_hist",
    )
    return {t.name: t for t in (tx, wrapped, gauge, hist)}


def assert_identical(loaded, expected):
    """Same names in the same order, and every field byte- and dtype-equal."""
    assert list(loaded) == list(expected)
    for name, want in expected.items():
        got = loaded[name]
        assert got.name == want.name
        assert got.kind is want.kind
        assert got.rate_bps == want.rate_bps
        for attr in ("timestamps_ns", "values"):
            got_array, want_array = getattr(got, attr), getattr(want, attr)
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()


class TestRoundTrip:
    def test_all_fields_preserved(self, tmp_path):
        path = tmp_path / "window.npz"
        original = sample_traces()
        save_traces(path, original)
        loaded = load_traces(path)
        assert set(loaded) == set(original)
        for name, trace in original.items():
            restored = loaded[name]
            assert np.array_equal(restored.timestamps_ns, trace.timestamps_ns)
            assert np.array_equal(restored.values, trace.values)
            assert restored.kind is trace.kind
            assert restored.rate_bps == trace.rate_bps

    def test_histogram_shape_preserved(self, tmp_path):
        path = tmp_path / "window.npz"
        save_traces(path, sample_traces())
        loaded = load_traces(path)
        assert loaded["down0.tx_size_hist"].values.shape == (4, 6)

    def test_derived_statistics_survive(self, tmp_path):
        path = tmp_path / "window.npz"
        original = sample_traces()
        save_traces(path, original)
        loaded = load_traces(path)
        assert np.allclose(
            loaded["down0.tx_bytes"].utilization(),
            original["down0.tx_bytes"].utilization(),
        )


class TestValidation:
    def test_empty_archive_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            save_traces(tmp_path / "x.npz", {})

    def test_key_name_mismatch_rejected(self, tmp_path):
        traces = sample_traces()
        renamed = {"wrong": traces["down0.tx_bytes"]}
        with pytest.raises(DataFormatError):
            save_traces(tmp_path / "x.npz", renamed)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(DataFormatError):
            load_traces(path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "w.npz"
        save_traces(path, sample_traces())
        assert path.exists()

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_traces(tmp_path / "absent.npz")


#: What each property-test trace exercises in the delta codec.
TRACE_KINDS = ("cumulative", "gauge", "wrapped", "wide", "histogram", "float")


@st.composite
def archived_traces(draw, kind):
    """One trace of ``kind``, length 1, 2 or up to 40."""
    n = draw(st.one_of(st.just(1), st.just(2), st.integers(3, 40)))
    steps = draw(arrays(np.int64, n - 1, elements=st.integers(1, 2**40)))
    timestamps = draw(st.integers(0, 2**50)) + np.concatenate(
        ([0], np.cumsum(steps))
    ).astype(np.int64)
    counts = arrays(np.int64, n, elements=st.integers(0, 10**6))
    value_kind = ValueKind.CUMULATIVE
    if kind == "cumulative":
        values = np.cumsum(draw(counts))
    elif kind == "gauge":
        values, value_kind = draw(counts), ValueKind.GAUGE
    elif kind == "wrapped":
        values = 2**32 - 10**6 + np.cumsum(draw(counts))
    elif kind == "wide":
        values = draw(arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1)))
    elif kind == "histogram":
        bins = draw(st.integers(1, 5))
        hist = arrays(np.int64, (n, bins), elements=st.integers(0, 10**4))
        values = np.cumsum(draw(hist), axis=0)
    else:
        values = draw(arrays(np.float64, n))
    trace = CounterTrace(
        timestamps_ns=timestamps, values=values, kind=value_kind, name=f"p.{kind}"
    )
    if kind == "wrapped":
        trace = FaultInjector(FaultPlan(wrap_bits=32)).wrap_trace(trace)
    return trace


class TestDeltaCodec:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_byte_exact(self, tmp_path_factory, kind, data):
        trace = data.draw(archived_traces(kind))
        path = tmp_path_factory.mktemp("codec") / "w.npz"
        save_traces(path, {trace.name: trace})
        assert_identical(load_traces(path), {trace.name: trace})
        with np.load(path, allow_pickle=False) as archive:
            integrity = archive["t0.integrity"].tolist()
        assert integrity == [len(trace), _crc(trace.timestamps_ns), _crc(trace.values)]

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.cumsum(np.arange(8, dtype=np.int64) * 200), np.uint16),
            (np.array([5, 9, 1, 300], dtype=np.int64), np.int16),
            (np.array([2**32 - 3000, 2**32 - 1500, 1200], dtype=np.int64), np.int64),
            (np.array([0, 2**31, 2**32 + 7], dtype=np.int64), np.uint32),
            (np.array([2**40, 0], dtype=np.int64), np.int64),
            (np.array([7], dtype=np.int64), np.uint8),
        ],
    )
    def test_values_stored_as_narrowest_deltas(self, tmp_path, values, dtype):
        trace = regular_trace(us(25), values, ValueKind.CUMULATIVE, name="p")
        path = tmp_path / "w.npz"
        save_traces(path, {"p": trace})
        with np.load(path, allow_pickle=False) as archive:
            assert archive["t0.values"].dtype == dtype
            # 25 us steps fit 16 bits; a one-sample trace has no deltas.
            assert archive["t0.timestamps"].dtype == (
                np.uint16 if len(values) > 1 else np.uint8
            )
            assert archive["t0.values.first"].tolist() == values[:1].tolist()

    def test_float_values_stored_raw(self, tmp_path):
        values = np.array([0.5, 0.25, 1.0])
        trace = regular_trace(us(25), values, ValueKind.GAUGE, name="p")
        path = tmp_path / "w.npz"
        save_traces(path, {"p": trace})
        with np.load(path, allow_pickle=False) as archive:
            assert "t0.values.first" not in archive
            assert archive["t0.values"].tobytes() == values.tobytes()

    def test_save_returns_archive_size(self, tmp_path):
        path = tmp_path / "w.npz"
        assert save_traces(path, sample_traces()) == path.stat().st_size


def _raw_members(path):
    """The archive's raw arrays, for building damaged variants."""
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


class TestIntegrity:
    def test_truncated_archive_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        data = path.read_bytes()
        for cut in (len(data) // 4, len(data) // 2, len(data) - 7):
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptTraceError):
                load_traces(path)

    def test_truncation_at_every_offset_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, {"down0.tx_bytes": sample_traces()["down0.tx_bytes"]})
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptTraceError):
                load_traces(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(CorruptTraceError):
            load_traces(path)

    def test_crc_mismatch_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        key = "t0.values"
        tampered = members[key].copy()
        tampered.flat[0] += 1
        members[key] = tampered
        np.savez_compressed(path, **members)
        with pytest.raises(CorruptTraceError, match="CRC"):
            load_traces(path)

    def test_length_mismatch_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        members["t0.timestamps"] = members["t0.timestamps"][:-1]
        members["t0.values"] = members["t0.values"][:-1]
        np.savez_compressed(path, **members)
        with pytest.raises(CorruptTraceError):
            load_traces(path)

    def test_missing_trace_detected_by_count(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        dropped = {
            key: value
            for key, value in members.items()
            if not key.startswith("t2.")
        }
        np.savez_compressed(path, **dropped)
        with pytest.raises(CorruptTraceError, match="header says"):
            load_traces(path)

    def test_version1_archive_without_integrity_still_loads(self):
        loaded = load_traces(FIXTURES / "archive_v1.npz")
        assert set(loaded) == set(fixture_traces())
        assert_identical(loaded, fixture_traces())


class TestLegacyFixtures:
    """Archives committed from the version-2 writer still load unchanged."""

    def test_version2_archive_loads_every_field(self):
        assert_identical(load_traces(FIXTURES / "archive_v2.npz"), fixture_traces())

    def test_version2_archive_is_crc_verified(self):
        with scoped_registry() as registry:
            load_traces(FIXTURES / "archive_v2.npz")
        counters = registry.snapshot()["counters"]
        assert counters["traceio.crc_verified"] == len(fixture_traces())

    @pytest.mark.parametrize("name", ["archive_v1.npz", "archive_v2.npz"])
    def test_fixture_versions(self, name):
        with np.load(FIXTURES / name, allow_pickle=False) as archive:
            version = int(archive["__repro_trace_archive__"][0])
            stored = archive["t0.values"]
        assert version == int(name[len("archive_v")])
        assert stored.dtype == np.int64


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        save_traces(path, sample_traces())  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]

    def test_failed_write_preserves_existing_archive(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        before = path.read_bytes()
        with pytest.raises(DataFormatError):
            save_traces(path, {"wrong": sample_traces()["down0.tx_bytes"]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]
