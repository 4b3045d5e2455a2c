"""Incremental ingestion: the watcher folds directory changes into the lake."""

from __future__ import annotations

import os
import threading

import pytest

from repro.artifacts import LakeWatcher, Manifest
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore
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
            snapshot_id = Manifest.load(artifact).snapshot_id
            idle = watcher.poll_once()
            assert idle.publish is None  # no change, no republish
            _write_table(lake_dir, "t1", seed=55, num_rows=16)
            changed = watcher.poll_once()
            assert changed.publish is not None
            assert Manifest.load(artifact).snapshot_id != snapshot_id


def _write_garbage(lake_dir, name, version):
    """An unreadable 'CSV': invalid UTF-8 with content that changes per
    version, modelling a producer re-writing garbage every cycle."""
    (lake_dir / f"{name}.csv").write_bytes(b"\xff\xfe\x00broken-" + bytes([version]))


class TestQuarantine:
    def _watcher(self, store, lake_dir):
        return LakeWatcher(
            store,
            lake_dir,
            quarantine_after=2,
            quarantine_base_polls=2,
            quarantine_max_polls=8,
        )

    def test_failures_park_after_grace_window(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._watcher(store, lake_dir)
            watcher.poll_once()  # poll 1: the three good tables
            _write_garbage(lake_dir, "bad", 1)
            first = watcher.poll_once()  # poll 2: failure 1 — grace
            assert first.unreadable == ["bad"] and not first.quarantined
            _write_garbage(lake_dir, "bad", 2)
            second = watcher.poll_once()  # poll 3: failure 2 — parked
            assert second.quarantined == ["bad"]
            assert second.parked == ["bad"]
            # Parked: even a fresh rewrite is not re-read inside the window.
            _write_garbage(lake_dir, "bad", 3)
            idle = watcher.poll_once()  # poll 4
            assert idle.candidates == 0 and idle.parked == ["bad"]
            # The good tables were never disturbed.
            assert sorted(store.table_names) == ["t0", "t1", "t2"]

    def test_failed_probe_reparks_with_longer_window(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._watcher(store, lake_dir)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 1)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 2)
            parked = watcher.poll_once()  # poll 3: window 2, probe at poll 5
            assert parked.quarantined == ["bad"]
            assert watcher.poll_once().candidates == 0  # poll 4: parked
            probe = watcher.poll_once()  # poll 5: due — probed, still broken
            assert probe.candidates == 1
            assert probe.quarantined == ["bad"]  # re-parked, window doubled
            # The doubled window (4 polls) holds: no probe before poll 9.
            for _ in range(3):  # polls 6-8
                assert watcher.poll_once().candidates == 0
            assert watcher.poll_once().candidates == 1  # poll 9: probed

    def test_release_after_table_heals(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._watcher(store, lake_dir)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 1)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 2)
            watcher.poll_once()  # parked, probe at poll 5
            _write_table(lake_dir, "bad", seed=123)  # the producer fixed it
            assert watcher.poll_once().candidates == 0  # poll 4: still parked
            healed = watcher.poll_once()  # poll 5: probe succeeds
            assert healed.released == ["bad"]
            assert healed.sketched == 1 and not healed.parked
            assert "bad" in store.table_names
            # Fully rehabilitated: the next failure gets a fresh grace window.
            _write_garbage(lake_dir, "bad", 9)
            relapse = watcher.poll_once()
            assert relapse.unreadable == ["bad"] and not relapse.quarantined

    def test_vanished_file_clears_quarantine_state(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            watcher = self._watcher(store, lake_dir)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 1)
            watcher.poll_once()
            _write_garbage(lake_dir, "bad", 2)
            assert watcher.poll_once().quarantined == ["bad"]
            (lake_dir / "bad.csv").unlink()
            report = watcher.poll_once()
            assert not report.parked  # gone from the directory, forgotten
            # Never ingested, so nothing to retire from the store either.
            assert sorted(store.table_names) == ["t0", "t1", "t2"]

    def test_window_validation(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "w.sketches") as store:
            with pytest.raises(ValueError, match="quarantine_after"):
                LakeWatcher(store, lake_dir, quarantine_after=0)
            with pytest.raises(ValueError, match="windows"):
                LakeWatcher(
                    store, lake_dir, quarantine_base_polls=8, quarantine_max_polls=4
                )


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
