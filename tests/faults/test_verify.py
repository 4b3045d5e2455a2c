"""`lake verify`: finding and repairing rot across the stores and artifact.

Covers the five check levels (SQLite soundness, sketch-row decode, prepared
consistency, row digests, artifact cross-check) and the repair paths: re-sketch from the
recorded CSV, targeted re-pull from the artifact, stale- and
undecodable-prepared pruning.
"""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS, load_manifest
from repro.artifacts.sync import publish_snapshot, pull_snapshot
from repro.artifacts.blobs import BlobStore
from repro.artifacts.manifest import BLOBS_DIR
from repro.data.csv_io import write_csv
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.cli import main
from repro.lake.verify import verify_lake
from repro.matchers.registry import create_matcher
from repro.telemetry.recorder import TelemetryRecorder, use

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


def _plant_digest(path, table, name_column, name):
    """Overwrite one row's stored digest with zeros, leaving its bytes."""
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            f"UPDATE {table} SET digest = zeroblob(32) WHERE {name_column} = ?", (name,)
        )
    connection.close()


def _digests_and_bytes(path, table, name_column):
    """``{name: (stored digest, row bytes)}`` straight from SQLite."""
    blob_column = "sketch" if table == "tables" else "payload"
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(
            f"SELECT {name_column}, digest, {blob_column} FROM {table}"
        ).fetchall()
    finally:
        connection.close()
    return {name: (digest, blob) for name, digest, blob in rows}


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
        for fingerprint, name, content_hash, payload_format, _, blob in prepared_store.iter_raw()
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

    def test_a_wrong_stored_digest_is_detected(self, built_lake, tmp_path):
        """A row whose stored digest is not the SHA-256 of its bytes would be
        published under the wrong blob name: it is a finding, in either
        store, and only for that row."""
        store, store_path, _lake_dir = built_lake
        prepared_path = tmp_path / "p.prepared"
        with _semprop_prepared(store, prepared_path) as prepared_store:
            assert verify_lake(store, prepared_store=prepared_store).clean
            _plant_digest(store_path, "tables", "name", "t1")
            _plant_digest(prepared_path, "prepared", "table_name", "t2")
            with use(TelemetryRecorder()) as recorder:
                report = verify_lake(store, prepared_store=prepared_store)
            assert report.bad_digests == ["t1", "prepared:t2"]
            assert not report.clean and not report.bad_sketches
            assert not report.undecodable_prepared
            assert recorder.snapshot().counters["verify.bad_digests"] == 2

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
        manifest = load_manifest(artifact)
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

    def test_truncated_row_is_reported_and_resketched_by_the_cli(self, built_lake, capsys):
        """A sectioned row cut short (its last histogram bytes gone) is
        undecodable: `lake verify` names it and `--repair` rebuilds it."""
        store, store_path, _lake_dir = built_lake
        before = store.get("t1")
        connection = sqlite3.connect(store_path)
        with connection:
            connection.execute(
                "UPDATE tables SET sketch = substr(sketch, 1, length(sketch) - 5) WHERE name = 't1'"
            )
        connection.close()
        verify = ["lake", "verify", "--store", str(store_path)]
        assert main(verify) == 1
        assert "undecodable sketches: t1" in capsys.readouterr().out
        assert main([*verify, "--repair"]) == 0
        assert "repairs: 1 re-sketched" in capsys.readouterr().out
        assert main(verify) == 0
        assert "verify: clean" in capsys.readouterr().out
        assert store.get("t1") == before

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

    def test_a_wrong_stored_digest_is_rewritten(self, built_lake, tmp_path, capsys):
        """Repair puts the row's bytes back through the ordinary write path,
        which stores their digest; the next publish names the blob by it."""
        store, store_path, _lake_dir = built_lake
        prepared_path = store_path.with_name(store_path.name + ".prepared")
        _semprop_prepared(store, prepared_path).close()
        rows = _digests_and_bytes(store_path, "tables", "name")
        paths = {name: store.source_path(name) for name in store.table_names}
        _plant_digest(store_path, "tables", "name", "t0")
        _plant_digest(prepared_path, "prepared", "table_name", "t1")
        verify = ["lake", "verify", "--store", str(store_path)]
        assert main(verify) == 1
        assert "rows whose stored digest is wrong: t0, prepared:t1" in capsys.readouterr().out
        assert main([*verify, "--repair"]) == 0
        assert "2 rewritten to mend their digest" in capsys.readouterr().out
        assert main(verify) == 0
        assert "verify: clean" in capsys.readouterr().out
        assert _digests_and_bytes(store_path, "tables", "name") == rows
        for digest, blob in _digests_and_bytes(prepared_path, "prepared", "table_name").values():
            assert digest == hashlib.sha256(blob).digest()
        # The rewritten row keeps its CSV, so the table can still be prepared.
        assert {name: store.source_path(name) for name in store.table_names} == paths
        with PreparedStore(tmp_path / "fresh.prepared") as fresh:
            prepared = prepare_lake(store, fresh, create_matcher(_METHOD))
        assert prepared.prepared == _NUM_TABLES and not prepared.missing
        artifact = tmp_path / "artifact"
        with PreparedStore(prepared_path) as prepared_store:
            publish_snapshot(store, artifact, prepared_store=prepared_store)
        assert verify_lake(store, source=artifact).clean

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

    def test_a_stale_row_with_a_wrong_digest_is_pruned_not_rewritten(
        self, built_lake, tmp_path
    ):
        store, _store_path, lake_dir = built_lake
        prepared_path = tmp_path / "p.prepared"
        with PreparedStore(prepared_path) as prepared_store:
            prepare_lake(store, prepared_store, create_matcher(_METHOD))
            table = tpcdi_prospect_table(num_rows=16, seed=502).rename("t0")
            write_csv(table, lake_dir / "t0.csv")
            build_from_paths(store, [lake_dir / "t0.csv"])
            _plant_digest(prepared_path, "prepared", "table_name", "t0")
            report = verify_lake(store, prepared_store=prepared_store, repair=True)
            assert report.bad_digests == ["prepared:t0"] and report.stale_prepared == 1
            assert report.rehashed == 1 and report.pruned_prepared == 1
            assert verify_lake(store, prepared_store=prepared_store).clean

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_undecodable_prepared_rows_are_deleted(self, built_lake, tmp_path, damage):
        store, _store_path, _lake_dir = built_lake
        with _semprop_prepared(store, tmp_path / "p.prepared") as prepared_store:
            _damage_one_prepared_row(prepared_store, damage)
            report = verify_lake(store, prepared_store=prepared_store, repair=True)
            assert report.pruned_prepared == 1
            assert report.healthy_after_repair
            assert sorted(name for _, name, *_ in prepared_store.raw_keys()) == ["t1", "t2"]
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
