"""Counter-trace persistence.

Campaigns produce large numbers of traces; this module stores them as
compressed ``.npz`` archives (one archive per campaign window or ad-hoc
collection) with enough metadata to reconstruct full
:class:`~repro.core.samples.CounterTrace` objects — name, semantics, and
line rate included.

Archive version 3 is a zip of ``.npy`` members, deflated at level 1:

* ``__repro_trace_archive__`` — the version; ``__n_traces__`` — the count;
* ``t{i}.meta`` — name, value kind and ``repr`` of the line rate;
* ``t{i}.timestamps`` and ``t{i}.values`` — an int64 array is stored as
  its first row in ``t{i}.timestamps.first`` / ``t{i}.values.first`` plus
  the ``np.diff`` deltas along axis 0 (so 2-D histogram values work too)
  in the narrowest integer dtype that holds them: unsigned when no delta
  is negative, signed otherwise, int64 as the fallback.  Any other dtype,
  such as a float trace, is stored raw with no ``.first`` member;
* ``t{i}.integrity`` — ``[n_samples, crc32(timestamps), crc32(values)]``
  over the *decoded* arrays.

Sample-to-sample deltas of a counter usually fit in 8 or 16 bits, so the
narrow arrays are a quarter or less of the int64 readings before deflate
starts, and the cheapest deflate level is enough.

Archives are written atomically (write to a temporary file, then rename)
and the integrity records turn a truncated or corrupted file into
:class:`~repro.errors.CorruptTraceError` instead of a shorter trace.
Version-2 archives (raw int64 members, same integrity records) and
version-1 archives (raw members, no integrity records) still load.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import CorruptTraceError, DataFormatError
from repro.telemetry.metrics import get_registry

_FORMAT_KEY = "__repro_trace_archive__"
_FORMAT_VERSION = 3
_COUNT_KEY = "__n_traces__"
_FIRST = ".first"
_UNSIGNED = (np.uint8, np.uint16, np.uint32)
_SIGNED = (np.int8, np.int16, np.int32)


def _crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def _normalized(path: Path) -> Path:
    """The final on-disk name (``.npz`` is appended when absent)."""
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def _narrowest(deltas: np.ndarray) -> np.ndarray:
    """``deltas`` in the smallest integer dtype that holds every one."""
    if deltas.size == 0:
        return deltas.astype(np.uint8)
    low, high = int(deltas.min()), int(deltas.max())
    for dtype in _UNSIGNED if low >= 0 else _SIGNED:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return deltas.astype(dtype)
    return deltas


def _encode(key: str, array: np.ndarray, payload: dict[str, np.ndarray]) -> None:
    if array.dtype != np.int64:
        payload[key] = array
        return
    # int64 arithmetic wraps, so diff-then-cumsum is exact for any values.
    payload[key + _FIRST] = array[:1]
    payload[key] = _narrowest(np.diff(array, axis=0))


def _decode(archive, key: str) -> np.ndarray:
    stored = archive[key]
    if key + _FIRST not in archive:
        return stored
    rows = np.concatenate((archive[key + _FIRST], stored))
    return np.cumsum(rows, axis=0, dtype=np.int64)


def _write_members(path: Path, members: dict[str, np.ndarray]) -> None:
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for key, array in members.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def save_traces(path: str | Path, traces: dict[str, CounterTrace]) -> int:
    """Write a named collection of traces to one archive; return its size.

    The archive appears atomically: readers either see the previous file
    or the complete new one, never a half-written archive.
    """
    if not traces:
        raise DataFormatError("refusing to write an empty trace archive")
    path = _normalized(Path(path))
    payload: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64),
        _COUNT_KEY: np.array([len(traces)], dtype=np.int64),
    }
    for index, (name, trace) in enumerate(traces.items()):
        if name != trace.name:
            raise DataFormatError(
                f"archive key {name!r} does not match trace name {trace.name!r}"
            )
        prefix = f"t{index}"
        _encode(f"{prefix}.timestamps", trace.timestamps_ns, payload)
        _encode(f"{prefix}.values", trace.values, payload)
        payload[f"{prefix}.meta"] = np.array(
            [trace.name, trace.kind.value, repr(float(trace.rate_bps))]
        )
        payload[f"{prefix}.integrity"] = np.array(
            [len(trace), _crc(trace.timestamps_ns), _crc(trace.values)],
            dtype=np.int64,
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}.npz")
    try:
        _write_members(tmp, payload)
        size = tmp.stat().st_size
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    registry = get_registry()
    registry.counter("traceio.archives_written").inc()
    registry.counter("traceio.bytes_written").inc(size)
    return size


def _verify(prefix: str, archive, trace: CounterTrace, path: Path) -> None:
    key = f"{prefix}.integrity"
    if key not in archive:
        raise CorruptTraceError(f"{path}: trace {trace.name!r} missing integrity record")
    n_samples, ts_crc, val_crc = (int(x) for x in archive[key])
    if n_samples != len(trace):
        raise CorruptTraceError(
            f"{path}: trace {trace.name!r} has {len(trace)} samples, header says "
            f"{n_samples} — truncated or corrupted archive"
        )
    if _crc(trace.timestamps_ns) != ts_crc or _crc(trace.values) != val_crc:
        get_registry().counter("traceio.crc_failures").inc()
        raise CorruptTraceError(f"{path}: CRC mismatch in trace {trace.name!r}")
    get_registry().counter("traceio.crc_verified").inc()


def load_traces(path: str | Path) -> dict[str, CounterTrace]:
    """Load a trace archive written by :func:`save_traces`."""
    path = Path(path)
    try:
        archive_cm = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CorruptTraceError(f"{path}: unreadable archive ({exc})") from exc
    with archive_cm as archive:
        try:
            if _FORMAT_KEY not in archive:
                raise DataFormatError(f"{path} is not a repro trace archive")
            version = int(archive[_FORMAT_KEY][0])
            if version not in (1, 2, _FORMAT_VERSION):
                raise DataFormatError(f"{path}: unsupported archive version {version}")
            traces: dict[str, CounterTrace] = {}
            index = 0
            while f"t{index}.meta" in archive:
                name, kind_value, rate_repr = archive[f"t{index}.meta"]
                trace = CounterTrace(
                    timestamps_ns=_decode(archive, f"t{index}.timestamps"),
                    values=_decode(archive, f"t{index}.values"),
                    kind=ValueKind(str(kind_value)),
                    name=str(name),
                    rate_bps=float(str(rate_repr)),
                )
                if version >= 2:
                    _verify(f"t{index}", archive, trace, path)
                traces[trace.name] = trace
                index += 1
            if version >= 2:
                expected = int(archive[_COUNT_KEY][0]) if _COUNT_KEY in archive else None
                if expected is not None and expected != len(traces):
                    raise CorruptTraceError(
                        f"{path}: archive holds {len(traces)} traces, header says "
                        f"{expected} — truncated archive"
                    )
        except (DataFormatError, FileNotFoundError):
            raise
        except Exception as exc:
            raise CorruptTraceError(f"{path}: damaged archive member ({exc})") from exc
    if not traces:
        raise DataFormatError(f"{path}: archive holds no traces")
    return traces
