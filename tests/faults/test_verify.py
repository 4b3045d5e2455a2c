"""`lake verify`: finding and repairing rot across the stores and artifact.

Covers the four check levels (SQLite soundness, sketch-row decode, prepared
consistency, artifact cross-check) and the repair paths: re-sketch from the
recorded CSV, targeted re-pull from the artifact, stale- and
undecodable-prepared pruning.
"""

from __future__ import annotations

import sqlite3

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS
from repro.artifacts import publish_snapshot, pull_snapshot
from repro.artifacts.blobs import BlobStore
from repro.artifacts.manifest import BLOBS_DIR, Manifest
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.cli import main
from repro.lake.verify import verify_lake
from repro.matchers.registry import create_matcher
from repro.telemetry import TelemetryRecorder, use

_METHOD = "jaccardlevenshtein"
_NUM_TABLES = 3


def _corrupt_sketch_row(store_path, table_name):
    """Clobber one table's sketch bytes directly in SQLite — the kind of
    row-level rot ``PRAGMA integrity_check`` cannot see."""
    connection = sqlite3.connect(store_path)
    try:
        connection.execute(
            "UPDATE tables SET sketch = X'DEADBEEF' WHERE name = ?",
            (table_name,),
        )
        connection.commit()
    finally:
        connection.close()


#: Ways a committed prepared row can fail to be its key's payload.
_DAMAGE = {
    "garbage": lambda blob, other: b"not a payload",
    "truncated-array-section": lambda blob, other: blob[:-5],
    "wrong-type-tag": lambda blob, other: blob.replace(b'"ndarray"', b'"nparray"', 1),
    "another-tables-row": lambda blob, other: other,
}


def _damage_one_prepared_row(prepared_store, damage):
    """Overwrite t0's SemProp row the way a pull commits one: ``put_raw``
    under its valid current-format key."""
    rows = {
        name: (fingerprint, content_hash, payload_format, bytes(blob))
        for fingerprint, name, content_hash, payload_format, blob in prepared_store.iter_raw()
    }
    fingerprint, content_hash, payload_format, blob = rows["t0"]
    bad = _DAMAGE[damage](blob, rows["t1"][3])
    prepared_store.put_raw(fingerprint, "t0", content_hash, payload_format, bad)


def _semprop_prepared(store, path):
    prepared_store = PreparedStore(path)
    matcher = create_matcher("semprop", **LIGHT_MATCHER_CONFIGS["semprop"])
    prepare_lake(store, prepared_store, matcher)
    return prepared_store


@pytest.fixture()
def built_lake(tmp_path):
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(_NUM_TABLES):
        table = tpcdi_prospect_table(num_rows=12, seed=70 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    store_path = tmp_path / "lake.sketches"
    store = SketchStore(store_path)
    build_from_paths(store, sorted(lake_dir.glob("*.csv")))
    yield store, store_path, lake_dir
    store.close()


class TestChecks:
    def test_clean_lake_is_clean(self, built_lake, tmp_path):
        store, _store_path, _lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        report = verify_lake(store, source=artifact)
        assert report.clean and report.healthy_after_repair
        assert not report.sqlite_findings

    def test_corrupt_sketch_row_is_detected(self, built_lake):
        store, store_path, _lake_dir = built_lake
        _corrupt_sketch_row(store_path, "t1")
        report = verify_lake(store)
        assert report.bad_sketches == ["t1"]
        assert not report.clean
        # Page-level integrity is still fine — this is row-level rot.
        assert not report.sqlite_findings

    def test_stale_prepared_rows_are_counted(self, built_lake, tmp_path):
        store, _store_path, lake_dir = built_lake
        matcher = create_matcher(_METHOD)
        with PreparedStore(tmp_path / "p.prepared") as prepared_store:
            prepare_lake(store, prepared_store, matcher)
            # Re-ingest one table with new content; skip the prepare pass.
            table = tpcdi_prospect_table(num_rows=16, seed=500).rename("t0")
            write_csv(table, lake_dir / "t0.csv")
            build_from_paths(store, [lake_dir / "t0.csv"])
            report = verify_lake(store, prepared_store=prepared_store)
            assert report.stale_prepared == 1

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_undecodable_prepared_row_is_detected(self, built_lake, tmp_path, damage):
        """A row the first query would silently discard makes the lake unclean."""
        store, _store_path, _lake_dir = built_lake
        recorder = TelemetryRecorder()
        with _semprop_prepared(store, tmp_path / "p.prepared") as prepared_store:
            assert verify_lake(store, prepared_store=prepared_store).clean
            _damage_one_prepared_row(prepared_store, damage)
            with use(recorder):
                report = verify_lake(store, prepared_store=prepared_store)
        assert report.undecodable_prepared == 1
        assert report.stale_prepared == 0
        assert not report.clean
        assert recorder.snapshot().counters["verify.undecodable_prepared"] == 1

    def test_artifact_blob_rot_is_detected(self, built_lake, tmp_path):
        store, _store_path, _lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        manifest = Manifest.load(artifact)
        blobs = BlobStore(artifact / BLOBS_DIR)
        victim, flipped = manifest.tables[0], manifest.tables[1]
        blobs._path_of(victim.digest).unlink()
        flipped_path = blobs._path_of(flipped.digest)
        raw = bytearray(flipped_path.read_bytes())
        raw[0] ^= 0xFF
        flipped_path.write_bytes(bytes(raw))
        report = verify_lake(store, source=artifact)
        assert report.missing_blobs == [victim.digest]
        assert report.corrupt_blobs == [flipped.digest]

    def test_manifest_entry_missing_locally(self, built_lake, tmp_path):
        store, _store_path, _lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        store.remove_table("t2")
        report = verify_lake(store, source=artifact)
        assert len(report.missing_entries) == 1
        assert report.missing_entries[0].startswith("t|t2|")


class TestRepair:
    def test_bad_sketch_is_resketched_from_its_csv(self, built_lake):
        """Publisher-side repair: the recorded source CSV is still readable,
        so the broken row is rebuilt locally, no artifact needed."""
        store, store_path, _lake_dir = built_lake
        _corrupt_sketch_row(store_path, "t1")
        report = verify_lake(store, repair=True)
        assert report.bad_sketches == ["t1"]
        assert report.resketched == 1
        assert report.healthy_after_repair
        store.get("t1")  # decodes again
        assert verify_lake(store).clean

    def test_bad_sketch_is_repulled_on_a_replica(self, built_lake, tmp_path):
        """Replica-side repair: no CSVs, so the broken table is re-fetched
        from the artifact — and only that table."""
        store, _store_path, _lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        replica_path = tmp_path / "replica.sketches"
        with SketchStore(replica_path) as replica:
            pull_snapshot(artifact, replica)
        _corrupt_sketch_row(replica_path, "t0")
        with SketchStore(replica_path) as replica:
            report = verify_lake(replica, source=artifact, repair=True)
            assert report.bad_sketches == ["t0"]
            assert report.resketched == 0 and report.repulled == 1
            assert report.healthy_after_repair
            assert verify_lake(replica, source=artifact).clean

    def test_stale_prepared_rows_are_pruned(self, built_lake, tmp_path):
        store, _store_path, lake_dir = built_lake
        matcher = create_matcher(_METHOD)
        with PreparedStore(tmp_path / "p.prepared") as prepared_store:
            prepare_lake(store, prepared_store, matcher)
            table = tpcdi_prospect_table(num_rows=16, seed=501).rename("t0")
            write_csv(table, lake_dir / "t0.csv")
            build_from_paths(store, [lake_dir / "t0.csv"])
            report = verify_lake(store, prepared_store=prepared_store, repair=True)
            assert report.pruned_prepared == 1
            assert verify_lake(store, prepared_store=prepared_store).clean

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_undecodable_prepared_rows_are_deleted(self, built_lake, tmp_path, damage):
        store, _store_path, _lake_dir = built_lake
        with _semprop_prepared(store, tmp_path / "p.prepared") as prepared_store:
            _damage_one_prepared_row(prepared_store, damage)
            report = verify_lake(store, prepared_store=prepared_store, repair=True)
            assert report.pruned_prepared == 1
            assert report.healthy_after_repair
            assert prepared_store.table_names() == ["t1", "t2"]
            assert verify_lake(store, prepared_store=prepared_store).clean

    def test_the_cli_reports_and_repairs_undecodable_rows(self, built_lake, capsys):
        store, store_path, _lake_dir = built_lake
        prepared_path = store_path.with_name(store_path.name + ".prepared")
        with _semprop_prepared(store, prepared_path) as prepared_store:
            _damage_one_prepared_row(prepared_store, "garbage")
        argv = ["lake", "verify", "--store", str(store_path)]
        assert main(argv) == 1
        assert "undecodable prepared rows: 1" in capsys.readouterr().out
        assert main(argv + ["--repair"]) == 0
        assert "1 stale or undecodable prepared rows pruned" in capsys.readouterr().out
        assert main(argv) == 0
        assert "verify: clean" in capsys.readouterr().out

    def test_missing_entry_is_repulled(self, built_lake, tmp_path):
        store, _store_path, _lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        store.remove_table("t2")
        report = verify_lake(store, source=artifact, repair=True)
        assert report.repulled == 1
        assert "t2" in store.table_names
        assert verify_lake(store, source=artifact).clean

    def test_unrepairable_without_csv_or_artifact(self, built_lake, tmp_path):
        """No source CSV and no artifact: the finding stays on the books."""
        store, _store_path, lake_dir = built_lake
        artifact = tmp_path / "artifact"
        publish_snapshot(store, artifact)
        replica_path = tmp_path / "replica.sketches"
        with SketchStore(replica_path) as replica:
            pull_snapshot(artifact, replica)
        _corrupt_sketch_row(replica_path, "t0")
        with SketchStore(replica_path) as replica:
            report = verify_lake(replica, repair=True)  # note: no source=
            assert report.unrepaired == ["t0"]
            assert not report.healthy_after_repair


class TestSqliteIntegrity:
    def test_healthy_stores_pass(self, built_lake, tmp_path):
        store, _store_path, _lake_dir = built_lake
        assert store.integrity_check() == []
        with PreparedStore(tmp_path / "p.prepared") as prepared_store:
            assert prepared_store.integrity_check() == []
