"""Incremental ingestion: the watcher folds directory changes into the lake."""

from __future__ import annotations

import os
import sqlite3
import sys
import threading

import pytest

from matcher_support import load_manifest

from repro.artifacts import LakeWatcher
from repro.artifacts.watch import (
    QUARANTINE_AFTER,
    QUARANTINE_BASE_POLLS,
    QUARANTINE_MAX_POLLS,
)
from repro.data import csv_io, fingerprint
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher


def _write_table(lake_dir, name, seed, num_rows=12):
    table = tpcdi_prospect_table(num_rows=num_rows, seed=seed).rename(name)
    write_csv(table, lake_dir / f"{name}.csv")


@pytest.fixture
def lake_dir(tmp_path):
    directory = tmp_path / "lake"
    directory.mkdir()
    for i in range(3):
        _write_table(directory, f"t{i}", seed=40 + i)
    return directory


class TestPollSemantics:
    def test_first_poll_ingests_everything(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            report = watcher.poll_once()
            assert report.seen == 3 and report.sketched == 3
            assert report.changed
            assert sorted(store.table_names) == ["t0", "t1", "t2"]

    def test_idle_poll_reads_nothing(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()
            version = store.version
            report = watcher.poll_once()
            assert report.candidates == 0 and not report.changed
            assert store.version == version

    def test_touch_rereads_but_never_resketches(self, tmp_path, lake_dir):
        """An mtime bump without content change passes the prefilter but the
        content-hash check stops it from mutating the store."""
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()
            version = store.version
            os.utime(lake_dir / "t0.csv", (10**9, 10**9))
            report = watcher.poll_once()
            assert report.candidates == 1
            assert report.sketched == 0 and report.unchanged == 1
            assert store.version == version
            # And the stamp was recorded: the touch is not re-read forever.
            assert watcher.poll_once().candidates == 0

    def test_content_change_resketches_only_that_table(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()
            before, _ = store.table_meta(["t1"])["t1"]
            _write_table(lake_dir, "t1", seed=99, num_rows=20)
            report = watcher.poll_once()
            assert report.candidates == 1 and report.sketched == 1
            assert store.table_meta(["t1"])["t1"][0] != before

    def test_deleted_csv_retires_its_table(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()
            (lake_dir / "t2.csv").unlink()
            report = watcher.poll_once()
            assert report.removed == 1
            assert sorted(store.table_names) == ["t0", "t1"]

    def test_new_csv_is_ingested(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()
            _write_table(lake_dir, "t9", seed=77)
            report = watcher.poll_once()
            assert report.sketched == 1
            assert "t9" in store.table_names


class TestPrepareAndPublish:
    def test_mutating_poll_keeps_prepared_store_warm(self, tmp_path, lake_dir):
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher
            )
            report = watcher.poll_once()
            assert report.prepared == 3
            # Change one table: exactly one re-prepare, one stale row pruned.
            _write_table(lake_dir, "t0", seed=91, num_rows=18)
            report = watcher.poll_once()
            assert report.sketched == 1
            assert report.prepared == 1
            assert report.stale_pruned == 1
            assert len(prepared_store.raw_keys()) == 3

    def test_prepared_store_requires_matcher(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            with pytest.raises(ValueError, match="together"):
                LakeWatcher(store, lake_dir, prepared_store=prepared_store)

    def test_publish_dir_republishes_on_change_only(self, tmp_path, lake_dir):
        artifact = tmp_path / "artifact"
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir, publish_dir=artifact)
            first = watcher.poll_once()
            assert first.publish is not None
            snapshot_id = load_manifest(artifact).snapshot_id
            idle = watcher.poll_once()
            assert idle.publish is None  # no change, no republish
            _write_table(lake_dir, "t1", seed=55, num_rows=16)
            changed = watcher.poll_once()
            assert changed.publish is not None
            assert load_manifest(artifact).snapshot_id != snapshot_id


def _counting_every_binding(monkeypatch, function, counts, key):
    """Count calls of *function* through every ``repro`` module that binds it."""

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, wrapper)


def _rows(prepared_store):
    return sorted((*key, bytes(blob)) for *key, _digest, blob in prepared_store.iter_raw())


class TestOneReadPerEdit:
    """The task that re-sketches an edited CSV prepares it too, so a poll
    reads and hashes each edited file once, and prepare_lake only prunes."""

    @pytest.mark.parametrize("edits", [1, 2])
    def test_poll_reads_hashes_and_prepares_each_edit_once(
        self, tmp_path, lake_dir, monkeypatch, edits
    ):
        matcher = create_matcher("semprop")
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher
            )
            assert watcher.poll_once().prepared == 3
            for i in range(edits):
                _write_table(lake_dir, f"t{i}", seed=91 + i, num_rows=18)
            counts = {"read_csv": 0, "table_content_hash": 0, "prepare": 0}
            _counting_every_binding(monkeypatch, csv_io.read_csv, counts, "read_csv")
            _counting_every_binding(
                monkeypatch, fingerprint.table_content_hash, counts, "table_content_hash"
            )
            prepare = matcher.prepare

            def counting_prepare(table):
                counts["prepare"] += 1
                return prepare(table)

            monkeypatch.setattr(matcher, "prepare", counting_prepare)
            report = watcher.poll_once()
            assert counts == {"read_csv": edits, "table_content_hash": edits, "prepare": edits}
            assert (report.sketched, report.prepared, report.stale_pruned) == (edits, edits, edits)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_prepared_rows_equal_a_fresh_prepare_lake(self, tmp_path, lake_dir, workers):
        matcher = create_matcher("semprop")
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher,
                workers=workers,
            )
            watcher.poll_once()
            _write_table(lake_dir, "t1", seed=93, num_rows=18)
            _write_table(lake_dir, "t7", seed=94)
            assert watcher.poll_once().prepared == 2
            watched = _rows(prepared_store)
        with SketchStore(tmp_path / "f.sketches") as store, PreparedStore(
            tmp_path / "f.prepared"
        ) as prepared_store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            assert prepare_lake(store, prepared_store, matcher).prepared == 4
            assert _rows(prepared_store) == watched

    def test_a_failing_prepare_leaves_the_sketch_and_reports(self, tmp_path, lake_dir, monkeypatch):
        """A prepare that raises inside the build task does not lose the
        sketch: prepare_lake retries the table and reports the failure."""
        matcher = create_matcher("semprop")
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher
            )
            watcher.poll_once()

            def broken(table):
                raise RuntimeError(f"cannot prepare {table.name}")

            monkeypatch.setattr(matcher, "prepare", broken)
            _write_table(lake_dir, "t2", seed=95, num_rows=18)
            report = watcher.poll_once()
            assert report.sketched == 1 and report.prepared == 0
            assert report.prepare_error == "cannot prepare t2"
            monkeypatch.undo()
            _write_table(lake_dir, "t2", seed=96, num_rows=18)
            assert watcher.poll_once().prepared == 1


    def test_a_locked_prepared_store_is_reported_and_the_loop_runs(
        self, tmp_path, lake_dir, monkeypatch
    ):
        """A prepared store that refuses writes costs the poll its prepared
        rows, not the watch loop: the sketch commits and prepare_error says why."""
        matcher = create_matcher("semprop")
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher
            )
            watcher.poll_once()

            def locked(*args, **kwargs):
                raise sqlite3.OperationalError("database is locked")

            monkeypatch.setattr(prepared_store, "put", locked)
            _write_table(lake_dir, "t2", seed=97, num_rows=18)
            reports = []
            assert watcher.run(interval_s=0, max_polls=2, on_report=reports.append) == 2
            assert reports[0].sketched == 1 and reports[0].prepared == 0
            assert reports[0].prepare_error == "database is locked"
            monkeypatch.undo()
            _write_table(lake_dir, "t2", seed=98, num_rows=18)
            assert watcher.poll_once().prepared == 1

    def test_a_worker_dying_in_prepare_is_reported_and_the_loop_runs(
        self, tmp_path, lake_dir
    ):
        """A pool worker that dies inside prepare breaks the build's pool:
        the tables are still sketched, and the prepare pass reports."""
        matcher = create_matcher("semprop")
        with SketchStore(tmp_path / "w.sketches") as store, PreparedStore(
            tmp_path / "w.prepared"
        ) as prepared_store:
            watcher = LakeWatcher(
                store, lake_dir, prepared_store=prepared_store, matcher=matcher,
                workers=2,
            )
            watcher.poll_once()
            prepare = matcher.prepare
            matcher.prepare = _die_in_a_worker
            _write_table(lake_dir, "t0", seed=99, num_rows=18)
            _write_table(lake_dir, "t1", seed=100, num_rows=18)
            reports = []
            assert watcher.run(interval_s=0, max_polls=2, on_report=reports.append) == 2
            assert reports[0].sketched == 2 and reports[0].prepared == 0
            assert reports[0].prepare_error is not None
            assert store.get("t0").num_rows == 18 and store.get("t1").num_rows == 18
            matcher.prepare = prepare
            _write_table(lake_dir, "t0", seed=101, num_rows=18)
            assert watcher.poll_once().prepared == 2


_TEST_PROCESS = os.getpid()


def _die_in_a_worker(table):
    """A prepare that kills the pool worker running it (and only raises in
    the test's own process)."""
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    raise RuntimeError(f"cannot prepare {table.name}")


def _write_garbage(lake_dir, name, version):
    """An unreadable 'CSV': invalid UTF-8 with content that changes per
    version, modelling a producer re-writing garbage every cycle."""
    (lake_dir / f"{name}.csv").write_bytes(b"\xff\xfe\x00broken-" + bytes([version]))


class TestQuarantine:
    """At the watcher's constants: parked after ``QUARANTINE_AFTER`` (3)
    failures, for ``QUARANTINE_BASE_POLLS`` (4) polls, doubling to
    ``QUARANTINE_MAX_POLLS`` (64)."""

    def _park(self, store, lake_dir):
        """A watcher whose last poll parked ``bad``: the good tables, then
        ``QUARANTINE_AFTER`` failed attempts, each on a fresh rewrite."""
        watcher = LakeWatcher(store, lake_dir)
        watcher.poll_once()
        for version in range(1, QUARANTINE_AFTER + 1):
            _write_garbage(lake_dir, "bad", version)
            report = watcher.poll_once()
            assert report.unreadable == ["bad"]
        assert report.quarantined == ["bad"]
        return watcher

    def test_failures_park_after_grace_window(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            watcher.poll_once()  # the three good tables
            for version in range(1, QUARANTINE_AFTER):
                _write_garbage(lake_dir, "bad", version)
                grace = watcher.poll_once()
                assert grace.unreadable == ["bad"] and not grace.quarantined
            _write_garbage(lake_dir, "bad", QUARANTINE_AFTER)
            parked = watcher.poll_once()
            assert parked.quarantined == ["bad"]
            assert parked.parked == ["bad"]
            # Parked: even a fresh rewrite is not re-read inside the window.
            for version in range(1, QUARANTINE_BASE_POLLS):
                _write_garbage(lake_dir, "bad", QUARANTINE_AFTER + version)
                idle = watcher.poll_once()
                assert idle.candidates == 0 and idle.parked == ["bad"]
            # The good tables were never disturbed.
            assert sorted(store.table_names) == ["t0", "t1", "t2"]

    def test_failed_probe_reparks_with_longer_window(self, tmp_path, lake_dir):
        windows = []
        window = QUARANTINE_BASE_POLLS
        while not windows or windows[-1] < QUARANTINE_MAX_POLLS:
            windows.append(window)
            window *= 2
        assert windows == [4, 8, 16, 32, 64]
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._park(store, lake_dir)
            for window in windows + [QUARANTINE_MAX_POLLS]:
                for _ in range(window - 1):
                    assert watcher.poll_once().candidates == 0
                probe = watcher.poll_once()  # due: probed, still broken
                assert probe.candidates == 1
                assert probe.quarantined == ["bad"]  # re-parked

    def test_release_after_table_heals(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._park(store, lake_dir)
            _write_table(lake_dir, "bad", seed=123)  # the producer fixed it
            for _ in range(QUARANTINE_BASE_POLLS - 1):
                assert watcher.poll_once().candidates == 0  # still parked
            healed = watcher.poll_once()  # the probe succeeds
            assert healed.released == ["bad"]
            assert healed.sketched == 1 and not healed.parked
            assert "bad" in store.table_names
            # Fully rehabilitated: the next failure gets a fresh grace window.
            _write_garbage(lake_dir, "bad", 99)
            relapse = watcher.poll_once()
            assert relapse.unreadable == ["bad"] and not relapse.quarantined

    def test_vanished_file_clears_quarantine_state(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._park(store, lake_dir)
            (lake_dir / "bad.csv").unlink()
            report = watcher.poll_once()
            assert not report.parked  # gone from the directory, forgotten
            # Never ingested, so nothing to retire from the store either.
            assert sorted(store.table_names) == ["t0", "t1", "t2"]


class TestStatErrors:
    def test_stat_failure_is_counted_not_silent(self, tmp_path, lake_dir, monkeypatch):
        from pathlib import Path

        real_stat = Path.stat

        def flaky_stat(self, **kwargs):
            if self.name == "t1.csv":
                raise PermissionError("injected: permission denied")
            return real_stat(self, **kwargs)

        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            monkeypatch.setattr(Path, "stat", flaky_stat)
            report = watcher.poll_once()
            assert report.stat_errors == 1
            assert report.seen == 2  # the unstattable file was skipped
            assert sorted(store.table_names) == ["t0", "t2"]
            monkeypatch.setattr(Path, "stat", real_stat)
            recovered = watcher.poll_once()
            assert recovered.stat_errors == 0
            assert "t1" in store.table_names


class TestRunLoop:
    def test_run_honours_max_polls_and_stop(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = LakeWatcher(store, lake_dir)
            reports = []
            polls = watcher.run(
                interval_s=0.01, max_polls=3, on_report=reports.append
            )
            assert polls == 3 and len(reports) == 3
            stop = threading.Event()
            stop.set()
            assert watcher.run(interval_s=0.01, stop=stop) == 0
