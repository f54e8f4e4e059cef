"""Span tracing: nesting, error capture, JSONL export, null behaviour."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.spans import (
    TRACE_VERSION,
    Tracer,
    _NullSpan,
    install_tracer,
    span,
)


@pytest.fixture()
def tracer():
    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


class TestNullBehaviour:
    def test_span_is_noop_without_tracer(self):
        previous = install_tracer(None)
        try:
            with span("stage", key="value") as record:
                assert isinstance(record, _NullSpan)
                record.set_attr("ignored", 1)  # must not raise
        finally:
            install_tracer(previous)

    def test_install_rejects_non_tracer(self):
        with pytest.raises(TelemetryError):
            install_tracer(object())  # type: ignore[arg-type]


class TestNesting:
    def test_parent_child_ids(self, tracer):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [record["name"] for record in tracer.finished]
        # children finish before their parent
        assert names == ["inner", "sibling", "outer"]

    def test_durations_recorded(self, tracer):
        with span("timed"):
            pass
        record = tracer.finished[0]
        assert record["duration_ns"] >= 0
        assert record["start_ns"] > 0

    def test_attrs_and_set_attr(self, tracer):
        with span("stage", fixed=1) as record:
            record.set_attr("late", "yes")
        assert tracer.finished[0]["attrs"] == {"fixed": 1, "late": "yes"}


class TestErrors:
    def test_exception_recorded_and_reraised(self, tracer):
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        record = tracer.finished[0]
        assert record["attrs"]["error"] == "ValueError"
        assert record["duration_ns"] is not None


class TestExport:
    def test_jsonl_header_and_records(self, tracer, tmp_path):
        with span("a"):
            with span("b"):
                pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["version"] == TRACE_VERSION
        assert header["repro_version"]
        assert header["git_describe"]
        records = [json.loads(line) for line in lines[1:]]
        assert [record["name"] for record in records] == ["b", "a"]

    def test_get_tracer_reflects_install(self, tracer):
        # Installing returns the tracer that was ambient until then.
        assert install_tracer(tracer) is tracer
