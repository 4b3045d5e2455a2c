"""Snapshot round-trip contracts: publish → pull reproduces the lake exactly.

The ISSUE-level guarantees pinned here:

* publish → wipe → pull reproduces a **byte-identical query ranking** for
  all eight registered matchers (sketches and prepared payloads both
  travel);
* a pull into a non-empty diverged store fetches **only the delta**
  (blob-fetch counters, both report- and telemetry-level);
* the seam: a store row, the blob published for it and the replica's row
  are the **same bytes**, for both stores, after a bootstrap pull and after
  a delta pull — and a sketch blob that disagrees with its manifest entry
  is refused by the store, reported ``corrupt``, never committed;
* IBLT decode failure falls back to the full manifest diff with the
  ``artifacts.iblt.decode_fallback`` telemetry counter recorded — and
  still converges.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS

from repro.artifacts import BlobStore, Manifest, publish_snapshot, pull_snapshot
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
from repro.lake.profiles import SketchConfig
from repro.matchers.registry import available_matchers, create_matcher
from repro.telemetry import TelemetryRecorder, use

_NUM_TABLES = 3


def _build_lake(tmp_path, num_tables=_NUM_TABLES, seed0=30):
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir(exist_ok=True)
    for i in range(num_tables):
        table = tpcdi_prospect_table(num_rows=14, seed=seed0 + i).rename(f"table_{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    store = SketchStore(tmp_path / "lake.sketches")
    build_from_paths(store, sorted(lake_dir.glob("*.csv")))
    return store, lake_dir


def _ranking_bytes(store, prepared_store, matcher, query):
    """The fully serialised ranking — byte-identical means pickle-equal."""
    with LakeDiscoveryEngine(
        matcher=matcher, store=store, prepared_store=prepared_store
    ) as engine:
        results = engine.query(query, mode="combined")
    return pickle.dumps(
        [(r.table_name, r.scores, r.matches) for r in results], protocol=4
    )


def _assert_rows_are_blobs(artifact, sketch_stores, prepared_stores):
    """Every given store's row bytes == the blob bytes published for them."""
    manifest = Manifest.load(artifact)
    blobs = BlobStore(artifact / "blobs")
    sketch_blobs = {e.name: blobs.read(e.digest) for e in manifest.tables}
    prepared_blobs = {
        (e.fingerprint, e.table_name, e.content_hash): blobs.read(e.digest)
        for e in manifest.prepared
    }
    assert sketch_blobs and prepared_blobs  # not vacuous
    for store in sketch_stores:
        rows = {name: bytes(blob) for name, _hash, _rows, blob in store.iter_raw()}
        assert rows == sketch_blobs
    for store in prepared_stores:
        rows = {
            (fingerprint, name, content_hash): bytes(blob)
            for fingerprint, name, content_hash, _fmt, blob in store.iter_raw()
        }
        assert rows == prepared_blobs


class TestPublishPullRoundTrip:
    def test_byte_identical_rankings_for_every_matcher(self, tmp_path):
        """publish → wipe → pull: the replica answers exactly like the
        publisher, for all eight matchers, without any CSVs of its own."""
        store, _ = _build_lake(tmp_path)
        query = tpcdi_prospect_table(num_rows=14, seed=99).rename("query_table")
        artifact = tmp_path / "artifact"
        for name in sorted(available_matchers()):
            matcher = create_matcher(name, **LIGHT_MATCHER_CONFIGS.get(name, {}))
            with PreparedStore(tmp_path / f"{name}.prepared") as prepared_store:
                prepare_lake(store, prepared_store, matcher)
                # Publish before querying: the query below write-throughs its
                # own prepared payload, which belongs to no snapshot.
                publish_snapshot(store, artifact, prepared_store=prepared_store)
                expected = _ranking_bytes(store, prepared_store, matcher, query)
            # "Wipe": brand-new store files, nothing shared with the source.
            with SketchStore(tmp_path / f"{name}.replica") as replica, PreparedStore(
                tmp_path / f"{name}.replica.prepared"
            ) as replica_prepared:
                report = pull_snapshot(artifact, replica, prepared_store=replica_prepared)
                assert report.tables_added == _NUM_TABLES
                assert report.prepared_added == _NUM_TABLES
                actual = _ranking_bytes(replica, replica_prepared, matcher, query)
            assert actual == expected, f"{name}: replica ranking diverged"
        store.close()

    def test_replica_needs_no_csvs(self, tmp_path):
        """The warm path serves every candidate from pulled payloads — the
        replica ranks tables whose source CSVs it has never seen."""
        store, _ = _build_lake(tmp_path)
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        with PreparedStore(tmp_path / "pub.prepared") as prepared_store:
            prepare_lake(store, prepared_store, matcher)
            publish_snapshot(store, tmp_path / "artifact", prepared_store=prepared_store)
        store.close()
        query = tpcdi_prospect_table(num_rows=14, seed=99).rename("q")
        with SketchStore(tmp_path / "replica") as replica, PreparedStore(
            tmp_path / "replica.prepared"
        ) as replica_prepared:
            pull_snapshot(tmp_path / "artifact", replica, prepared_store=replica_prepared)
            with LakeDiscoveryEngine(
                matcher=matcher, store=replica, prepared_store=replica_prepared
            ) as engine:
                results = engine.query(query)
                assert len(results) == _NUM_TABLES
                assert engine.last_query_stats.store_hits == _NUM_TABLES


class TestDeltaPull:
    def test_diverged_store_fetches_only_the_delta(self, tmp_path):
        """Sketches and prepared payloads both travel, so the delta is two
        blobs per changed table — and nothing else crosses."""
        store, lake_dir = _build_lake(tmp_path, num_tables=8)
        matcher = create_matcher("semprop", **LIGHT_MATCHER_CONFIGS["semprop"])
        prepared = PreparedStore(tmp_path / "lake.sketches.prepared")
        prepare_lake(store, prepared, matcher)
        publish_snapshot(store, tmp_path / "artifact", prepared_store=prepared)
        # Replica syncs fully once.
        replica = SketchStore(tmp_path / "replica")
        replica_prepared = PreparedStore(tmp_path / "replica.prepared")
        first = pull_snapshot(
            tmp_path / "artifact", replica, prepared_store=replica_prepared
        )
        assert first.blobs_fetched == 2 * 8
        _assert_rows_are_blobs(
            tmp_path / "artifact", (store, replica), (prepared, replica_prepared)
        )
        # Publisher diverges: one changed, one new, one deleted.
        write_csv(
            tpcdi_prospect_table(num_rows=20, seed=77).rename("table_0"),
            lake_dir / "table_0.csv",
        )
        write_csv(
            tpcdi_prospect_table(num_rows=14, seed=88).rename("table_new"),
            lake_dir / "table_new.csv",
        )
        (lake_dir / "table_1.csv").unlink()
        build_from_paths(
            store, sorted(lake_dir.glob("*.csv")), remove_missing=True
        )
        prepare_lake(store, prepared, matcher)
        publish_snapshot(store, tmp_path / "artifact", prepared_store=prepared)
        recorder = TelemetryRecorder()
        with use(recorder):
            report = pull_snapshot(
                tmp_path / "artifact", replica, prepared_store=replica_prepared
            )
        # Only the changed + new blobs cross; the six shared tables' do not.
        assert report.blobs_fetched == 2 * 2
        assert report.blobs_skipped == 2 * 6
        assert report.tables_added == report.prepared_added == 2
        assert report.tables_removed == 1
        # Both key domains (tables, prepared) reconcile by IBLT peel.
        assert report.iblt_decoded == 2 and report.iblt_fallback == 0
        counters = recorder.snapshot().counters
        assert counters.get("artifacts.pull.blobs_fetched") == 2 * 2
        assert counters.get("artifacts.pull.blobs_skipped") == 2 * 6
        assert counters.get("artifacts.iblt.decode_success") == 2
        assert sorted(replica.table_names) == sorted(store.table_names)
        for name in store.table_names:
            assert replica.content_hash(name) == store.content_hash(name)
        assert sorted(replica_prepared.raw_keys()) == sorted(prepared.raw_keys())
        _assert_rows_are_blobs(
            tmp_path / "artifact", (store, replica), (prepared, replica_prepared)
        )
        for handle in (replica_prepared, replica, prepared, store):
            handle.close()

    def test_idempotent_pull_is_free(self, tmp_path):
        store, _ = _build_lake(tmp_path)
        publish_snapshot(store, tmp_path / "artifact")
        replica = SketchStore(tmp_path / "replica")
        pull_snapshot(tmp_path / "artifact", replica)
        version_before = replica.version
        again = pull_snapshot(tmp_path / "artifact", replica)
        assert again.unchanged
        assert again.blobs_fetched == 0
        assert replica.version == version_before  # no spurious generation bump
        replica.close()
        store.close()


class TestIBLTFallback:
    def test_undecodable_delta_falls_back_to_full_diff(self, tmp_path):
        """A manifest IBLT too small for the difference must not break the
        pull: full-diff fallback converges and the counter records it."""
        store, _ = _build_lake(tmp_path, num_tables=6)
        # One cell per subtable cannot peel a 6-key bootstrap difference.
        publish_snapshot(store, tmp_path / "artifact", iblt_cells_per_subtable=1)
        replica = SketchStore(tmp_path / "replica")
        recorder = TelemetryRecorder()
        with use(recorder):
            report = pull_snapshot(tmp_path / "artifact", replica)
        assert report.iblt_fallback == 1 and report.iblt_decoded == 0
        assert report.tables_added == 6
        counters = recorder.snapshot().counters
        assert counters.get("artifacts.iblt.decode_fallback") == 1
        assert "artifacts.iblt.decode_success" not in counters
        assert sorted(replica.table_names) == sorted(store.table_names)
        replica.close()
        store.close()


class TestSafety:
    def test_config_mismatch_refused(self, tmp_path):
        store, _ = _build_lake(tmp_path)
        publish_snapshot(store, tmp_path / "artifact")
        store.close()
        other = SketchStore(
            tmp_path / "other.sketches", config=SketchConfig(num_permutations=32)
        )
        with pytest.raises(ValueError, match="refusing to mix"):
            pull_snapshot(tmp_path / "artifact", other)
        other.close()

    def test_corrupt_blob_is_skipped_not_committed(self, tmp_path):
        store, _ = _build_lake(tmp_path)
        publish_snapshot(store, tmp_path / "artifact")
        manifest = Manifest.load(tmp_path / "artifact")
        victim = manifest.tables[0]
        blob_path = (
            tmp_path / "artifact" / "blobs" / victim.digest[:2] / victim.digest
        )
        blob_path.write_bytes(b'{"tampered": true}')
        replica = SketchStore(tmp_path / "replica")
        report = pull_snapshot(tmp_path / "artifact", replica)
        assert victim.name in report.corrupt
        assert report.tables_added == _NUM_TABLES - 1
        assert victim.name not in replica.table_names
        replica.close()
        store.close()

    def test_blob_that_disagrees_with_its_entry_is_refused(self, tmp_path):
        """Digest-valid sketch bytes under the wrong manifest entry — another
        table's blob, or the right table at another content hash — never
        reach the replica: ``put_raw`` refuses them, the pull reports them
        ``corrupt`` and the store stays untouched."""
        store, _ = _build_lake(tmp_path)
        publish_snapshot(store, tmp_path / "artifact")
        manifest = Manifest.load(tmp_path / "artifact")
        first, second, third = manifest.tables
        manifest.tables = [
            replace(first, digest=second.digest),  # names table_1
            replace(second, digest=first.digest),  # names table_0
            replace(third, content_hash="0" * 64),  # embeds the real hash
        ]
        manifest.save(tmp_path / "artifact")
        with SketchStore(tmp_path / "replica") as replica:
            report = pull_snapshot(tmp_path / "artifact", replica)
            assert sorted(report.corrupt) == ["table_0", "table_1", "table_2"]
            assert report.tables_added == report.blobs_fetched == 0
            assert len(replica) == 0 and replica.version == 0
            blob = next(blob for name, _h, _n, blob in store.iter_raw() if name == "table_2")
            with pytest.raises(ValueError, match="not 'table_2'"):
                replica.put_raw("table_2", "0" * 64, blob)
            with pytest.raises(ValueError, match="not a table sketch"):
                replica.put_raw("table_2", third.content_hash, b"\xde\xad")
            assert len(replica) == 0 and replica.version == 0
        store.close()

    def test_republish_in_place_prunes_superseded_blobs(self, tmp_path):
        store, lake_dir = _build_lake(tmp_path)
        matcher = create_matcher("semprop", **LIGHT_MATCHER_CONFIGS["semprop"])
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared:
            prepare_lake(store, prepared, matcher)
            artifact = tmp_path / "artifact"
            first = publish_snapshot(store, artifact, prepared_store=prepared)
            write_csv(
                tpcdi_prospect_table(num_rows=22, seed=70).rename("table_0"),
                lake_dir / "table_0.csv",
            )
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            prepare_lake(store, prepared, matcher)
            second = publish_snapshot(store, artifact, prepared_store=prepared)
        assert second.snapshot_id != first.snapshot_id
        # Only the changed table: its sketch blob and its prepared payload.
        assert second.blobs_written == 2
        assert second.blobs_reused == 2 * (_NUM_TABLES - 1)
        assert second.blobs_pruned == 2  # the superseded table_0 pair
        store.close()
