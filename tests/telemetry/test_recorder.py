"""Unit tests for the telemetry recorder core."""

from __future__ import annotations

import os
import pickle
import threading
import time

import pytest

from repro.telemetry.recorder import (
    MAX_SAMPLES,
    MAX_SPANS,
    NULL_RECORDER,
    NullRecorder,
    TelemetryRecorder,
    TelemetrySnapshot,
    count,
    get_recorder,
    observe,
    quantile,
    set_default_recorder,
    span,
    use,
)


class TestQuantile:
    def test_empty_is_zero(self):
        assert quantile([], 0.5) == 0.0

    def test_single_sample_is_every_quantile(self):
        assert quantile([7.0], 0.0) == 7.0
        assert quantile([7.0], 0.5) == 7.0
        assert quantile([7.0], 0.99) == 7.0

    def test_median_of_even_count_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        samples = [5.0, 1.0, 3.0]
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 1.0) == 5.0

    def test_p95_on_hundred_samples(self):
        samples = [float(i) for i in range(1, 101)]
        assert quantile(samples, 0.95) == pytest.approx(95.05)


class TestTelemetryRecorder:
    def test_counters_accumulate(self):
        recorder = TelemetryRecorder()
        recorder.count("x")
        recorder.count("x", 4)
        recorder.count("y", 2)
        snap = recorder.snapshot()
        assert snap.counters == {"x": 5, "y": 2}

    def test_span_records_duration_and_attrs(self):
        recorder = TelemetryRecorder()
        with recorder.span("stage", table="t1", n=3):
            time.sleep(0.001)
        snap = recorder.snapshot()
        assert len(snap.spans) == 1
        record = snap.spans[0]
        assert record.name == "stage"
        assert record.duration >= 0.001
        assert record.pid == os.getpid()
        assert dict(record.attrs) == {"table": "t1", "n": 3}
        assert snap.durations["stage"] == [record.duration]

    def test_observe_feeds_histogram_without_span(self):
        recorder = TelemetryRecorder()
        recorder.observe("wait", 0.25)
        recorder.observe("wait", 0.75)
        snap = recorder.snapshot()
        assert snap.spans == []
        summary = snap.duration_summary("wait")
        assert summary["count"] == 2
        assert summary["total"] == pytest.approx(1.0)
        assert summary["mean"] == pytest.approx(0.5)
        assert summary["p50"] == pytest.approx(0.5)

    def test_snapshot_is_a_copy(self):
        recorder = TelemetryRecorder()
        recorder.count("x")
        snap = recorder.snapshot()
        snap.counters["x"] = 99
        snap.durations["bogus"] = [1.0]
        assert recorder.snapshot().counters == {"x": 1}
        assert "bogus" not in recorder.snapshot().durations

    def test_snapshot_pickles(self):
        recorder = TelemetryRecorder()
        with recorder.span("stage", table="t"):
            pass
        recorder.count("x", 2)
        clone = pickle.loads(pickle.dumps(recorder.snapshot()))
        assert clone.counters == {"x": 2}
        assert clone.spans[0].name == "stage"

    def test_merge_sums_counters_and_extends_samples(self):
        recorder = TelemetryRecorder()
        recorder.count("x", 1)
        recorder.observe("d", 1.0)
        other = TelemetrySnapshot(counters={"x": 2, "y": 5}, durations={"d": [3.0]})
        recorder.merge(other)
        snap = recorder.snapshot()
        assert snap.counters == {"x": 3, "y": 5}
        assert snap.durations["d"] == [1.0, 3.0]

    def test_max_spans_caps_trace_not_histograms(self):
        recorder = TelemetryRecorder()
        for _ in range(MAX_SPANS + 2):
            with recorder.span("s"):
                pass
        snap = recorder.snapshot()
        assert len(snap.spans) == MAX_SPANS
        assert snap.dropped_spans == 2
        # Histogram keeps every sample — percentiles stay exact.
        assert len(snap.durations["s"]) == MAX_SPANS + 2

    def test_merge_respects_span_cap(self):
        recorder = TelemetryRecorder()
        for _ in range(2):
            with recorder.span("a"):
                pass
        donor = TelemetryRecorder()
        for _ in range(MAX_SPANS - 1):
            with donor.span("b"):
                pass
        recorder.merge(donor.snapshot())
        snap = recorder.snapshot()
        assert len(snap.spans) == MAX_SPANS
        assert snap.dropped_spans == 1
        # Histogram samples from the donor all arrive regardless.
        assert len(snap.durations["b"]) == MAX_SPANS - 1

    def test_observe_keeps_a_sliding_window_of_samples(self):
        """Trimming waits until a histogram holds twice the window, then
        keeps the most recent ``MAX_SAMPLES``."""
        recorder = TelemetryRecorder()
        for value in range(2 * MAX_SAMPLES):
            recorder.observe("d", float(value))
        assert len(recorder.snapshot().durations["d"]) == 2 * MAX_SAMPLES
        recorder.observe("d", float(2 * MAX_SAMPLES))
        samples = recorder.snapshot().durations["d"]
        assert samples == [float(v) for v in range(MAX_SAMPLES + 1, 2 * MAX_SAMPLES + 1)]

    def test_merge_keeps_a_sliding_window_of_samples(self):
        recorder = TelemetryRecorder()
        recorder.observe("d", -1.0)
        recorder.merge(TelemetrySnapshot(durations={"d": [0.0] * (2 * MAX_SAMPLES - 1)}))
        assert len(recorder.snapshot().durations["d"]) == 2 * MAX_SAMPLES
        recorder.merge(TelemetrySnapshot(durations={"d": [float(v) for v in range(3)]}))
        samples = recorder.snapshot().durations["d"]
        assert len(samples) == MAX_SAMPLES
        assert samples[-3:] == [0.0, 1.0, 2.0]
        assert -1.0 not in samples

    def test_thread_safety_of_counters(self):
        recorder = TelemetryRecorder()

        def bump():
            for _ in range(1000):
                recorder.count("x")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.snapshot().counters["x"] == 4000


class TestNullRecorder:
    def test_records_nothing(self):
        recorder = NullRecorder()
        with recorder.span("stage", table="t"):
            pass
        recorder.count("x", 10)
        recorder.observe("d", 1.0)
        recorder.merge(TelemetrySnapshot(counters={"x": 1}))
        snap = recorder.snapshot()
        assert snap.empty
        assert snap.counters == {}
        assert snap.spans == []

    def test_disabled_flag(self):
        assert NULL_RECORDER.enabled is False
        assert TelemetryRecorder().enabled is True

    def test_shared_null_span(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestActiveRecorder:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_scopes_the_recorder(self):
        recorder = TelemetryRecorder()
        with use(recorder):
            assert get_recorder() is recorder
            count("x", 2)
            with span("s"):
                pass
            observe("d", 0.5)
        assert get_recorder() is NULL_RECORDER
        snap = recorder.snapshot()
        assert snap.counters == {"x": 2}
        assert len(snap.spans) == 1
        assert snap.durations["d"] == [0.5]

    def test_use_nests(self):
        outer, inner = TelemetryRecorder(), TelemetryRecorder()
        with use(outer):
            count("x")
            with use(inner):
                assert get_recorder() is inner
                count("x")
            assert get_recorder() is outer
            count("x")
        assert outer.snapshot().counters == {"x": 2}
        assert inner.snapshot().counters == {"x": 1}

    def test_module_functions_are_noops_by_default(self):
        count("x", 5)
        observe("d", 1.0)
        with span("s"):
            pass  # must not raise and must not leak anywhere

    def test_set_default_recorder(self):
        recorder = TelemetryRecorder()
        set_default_recorder(recorder)
        try:
            count("x")
            assert recorder.snapshot().counters == {"x": 1}
        finally:
            set_default_recorder(None)
        assert get_recorder() is NULL_RECORDER

    def test_thread_local_isolation(self):
        recorder = TelemetryRecorder()
        seen: list[object] = []

        def probe():
            seen.append(get_recorder())

        with use(recorder):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        # The other thread never entered `use`, so it sees the default.
        assert seen == [NULL_RECORDER]


class TestSnapshotHelpers:
    def test_merge_on_snapshot(self):
        left = TelemetrySnapshot(counters={"a": 1}, durations={"d": [1.0]})
        right = TelemetrySnapshot(
            counters={"a": 2, "b": 1}, durations={"d": [2.0]}, dropped_spans=3
        )
        left.merge(right)
        assert left.counters == {"a": 3, "b": 1}
        assert left.durations == {"d": [1.0, 2.0]}
        assert left.dropped_spans == 3

    def test_stage_seconds(self):
        snap = TelemetrySnapshot(durations={"b": [1.0, 2.0], "a": [0.5]})
        assert snap.stage_seconds() == {"a": 0.5, "b": 3.0}

    def test_duration_summary_empty(self):
        summary = TelemetrySnapshot().duration_summary("missing")
        assert summary == {
            "count": 0.0,
            "total": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_empty_property(self):
        assert TelemetrySnapshot().empty
        assert not TelemetrySnapshot(counters={"x": 1}).empty
        assert not TelemetrySnapshot(dropped_spans=1).empty
