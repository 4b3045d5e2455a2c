"""Chrome trace-event export: schema and round-trip checks."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.recorder import SpanRecord, TelemetryRecorder, TelemetrySnapshot
from repro.telemetry.trace import to_chrome_trace, write_chrome_trace


def _snapshot_with_spans() -> TelemetrySnapshot:
    recorder = TelemetryRecorder()
    with recorder.span("discovery.score", candidates=4):
        with recorder.span("rerank.prepare_candidate", table="t1"):
            pass
    recorder.count("prepared_store.hits", 3)
    return recorder.snapshot()


class TestToChromeTrace:
    def test_event_schema(self):
        trace = to_chrome_trace(_snapshot_with_spans())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            # Complete events, the only phase this exporter emits.
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["cat"], str)
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)

    def test_category_is_span_name_prefix(self):
        trace = to_chrome_trace(_snapshot_with_spans())
        cats = {event["name"]: event["cat"] for event in trace["traceEvents"]}
        assert cats["discovery.score"] == "discovery"
        assert cats["rerank.prepare_candidate"] == "rerank"

    def test_timestamps_shifted_to_origin(self):
        trace = to_chrome_trace(_snapshot_with_spans())
        assert min(event["ts"] for event in trace["traceEvents"]) == pytest.approx(0.0)

    def test_attrs_become_args(self):
        trace = to_chrome_trace(_snapshot_with_spans())
        by_name = {event["name"]: event for event in trace["traceEvents"]}
        assert by_name["discovery.score"]["args"] == {"candidates": 4}
        assert by_name["rerank.prepare_candidate"]["args"] == {"table": "t1"}

    def test_counters_in_other_data(self):
        trace = to_chrome_trace(_snapshot_with_spans())
        assert trace["otherData"]["counters"] == {"prepared_store.hits": 3}
        assert trace["otherData"]["dropped_spans"] == 0

    def test_empty_snapshot(self):
        trace = to_chrome_trace(TelemetrySnapshot())
        assert trace["traceEvents"] == []

    def test_worker_pids_preserved(self):
        snap = TelemetrySnapshot(
            spans=[
                SpanRecord(name="rerank.chunk", start=1.0, duration=0.1, pid=111),
                SpanRecord(name="rerank.chunk", start=1.05, duration=0.1, pid=222),
            ]
        )
        trace = to_chrome_trace(snap)
        assert {event["pid"] for event in trace["traceEvents"]} == {111, 222}


class TestWriteChromeTrace:
    def test_writes_valid_json(self, tmp_path):
        path = write_chrome_trace(_snapshot_with_spans(), tmp_path / "trace.json")
        assert path.exists()
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert len(loaded["traceEvents"]) == 2

    def test_round_trip_preserves_schema(self, tmp_path):
        snapshot = _snapshot_with_spans()
        path = write_chrome_trace(snapshot, tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == to_chrome_trace(snapshot)

    def test_accepts_string_path(self, tmp_path):
        path = write_chrome_trace(TelemetrySnapshot(), str(tmp_path / "t.json"))
        assert path.exists()
