"""Stale-state maintenance: build pruning, prepared pruning, removal invalidation.

The PR 8 satellite contracts:

* ``build_from_paths(remove_missing=True)`` drops tables whose CSV
  vanished — but never tables whose CSV is present yet unreadable;
* ``prepare_lake`` prunes prepared payloads whose build-time content hash
  no longer matches the sketch store, before writing fresh ones;
* ``SketchStore.remove_table`` bumps the store version with the delete, so
  a ``LakeDiscoveryEngine``'s cached LSH index — which probes the version
  on every access — can never serve a dangling candidate name.
"""

from __future__ import annotations

from matcher_support import engine_shortlist
from repro.data.csv_io import write_csv
from repro.data.fingerprint import table_content_hash
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.registry import create_matcher


def _make_lake(tmp_path, num_tables=4):
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(num_tables):
        table = tpcdi_prospect_table(num_rows=12, seed=60 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"t{i}.csv")
    return lake_dir


class TestBuildRemoveMissing:
    def test_vanished_csv_drops_its_sketch(self, tmp_path):
        lake_dir = _make_lake(tmp_path)
        with SketchStore(tmp_path / "s.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            (lake_dir / "t3.csv").unlink()
            report = build_from_paths(
                store, sorted(lake_dir.glob("*.csv")), remove_missing=True
            )
            assert report.removed == ["t3"]
            assert sorted(store.table_names) == ["t0", "t1", "t2"]

    def test_default_keeps_missing(self, tmp_path):
        lake_dir = _make_lake(tmp_path)
        with SketchStore(tmp_path / "s.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            (lake_dir / "t3.csv").unlink()
            report = build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            assert report.removed == []
            assert "t3" in store.table_names

    def test_unreadable_but_present_csv_keeps_its_sketch(self, tmp_path):
        """A transiently corrupt CSV must not destroy a good sketch."""
        lake_dir = _make_lake(tmp_path)
        with SketchStore(tmp_path / "s.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            (lake_dir / "t0.csv").write_bytes(b"\x00\xff not a csv \x00")
            report = build_from_paths(
                store, sorted(lake_dir.glob("*.csv")), remove_missing=True
            )
            assert report.unreadable == ["t0"]
            assert report.removed == []
            assert "t0" in store.table_names


class TestPrepareStalePruning:
    def test_stale_payloads_pruned_before_fresh_ones_written(self, tmp_path):
        lake_dir = _make_lake(tmp_path, num_tables=3)
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        with SketchStore(tmp_path / "s.sketches") as store, PreparedStore(
            tmp_path / "s.prepared"
        ) as prepared_store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            first = prepare_lake(store, prepared_store, matcher)
            assert first.prepared == 3 and first.stale_pruned == 0
            old_hash, _ = store.table_meta(["t1"])["t1"]
            # t1's content changes and the lake is rebuilt: its old payload
            # row (keyed by the old hash) is now unreachable garbage.
            write_csv(
                tpcdi_prospect_table(num_rows=20, seed=99).rename("t1"),
                lake_dir / "t1.csv",
            )
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            second = prepare_lake(store, prepared_store, matcher)
            assert second.stale_pruned == 1
            assert second.prepared == 1 and second.already_stored == 2
            keys = prepared_store.raw_keys()
            assert len(keys) == 3
            assert all(content_hash != old_hash for _, _, content_hash, *_ in keys)

    def test_removed_table_payload_pruned(self, tmp_path):
        lake_dir = _make_lake(tmp_path, num_tables=3)
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        with SketchStore(tmp_path / "s.sketches") as store, PreparedStore(
            tmp_path / "s.prepared"
        ) as prepared_store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            prepare_lake(store, prepared_store, matcher)
            store.remove_table("t2")
            report = prepare_lake(store, prepared_store, matcher)
            assert report.stale_pruned == 1
            names = {name for _, name, *_ in prepared_store.raw_keys()}
            assert names == {"t0", "t1"}


class TestRemovalInvalidation:
    def test_remove_table_never_leaves_dangling_shortlist_names(self, tmp_path):
        lake_dir = _make_lake(tmp_path)
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        query = tpcdi_prospect_table(num_rows=12, seed=90).rename("q")
        with SketchStore(tmp_path / "s.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            with LakeDiscoveryEngine(matcher=matcher, store=store) as engine:
                assert "t1" in {c.table_name for c in engine_shortlist(engine, query)}
                store.remove_table("t1")
                # The removal bumped the store version in its own
                # transaction; the next shortlist's version probe sees it.
                assert "t1" not in {c.table_name for c in engine_shortlist(engine, query)}

    def test_removal_by_another_process_handle_is_seen_too(self, tmp_path):
        """The version probe is the only invalidation that crosses
        processes (a ``lake watch`` writer under a ``lake serve`` reader):
        a removal through a second handle on the same file must drop the
        table from the reader's next shortlist."""
        lake_dir = _make_lake(tmp_path)
        matcher = create_matcher("jaccardlevenshtein", sample_size=20)
        query = tpcdi_prospect_table(num_rows=12, seed=90).rename("q")
        with SketchStore(tmp_path / "s.sketches") as writer:
            build_from_paths(writer, sorted(lake_dir.glob("*.csv")))
            with SketchStore(tmp_path / "s.sketches", read_only=True) as reader:
                with LakeDiscoveryEngine(matcher=matcher, store=reader) as engine:
                    assert "t1" in {c.table_name for c in engine_shortlist(engine, query)}
                    writer.remove_table("t1")
                    assert "t1" not in {
                        c.table_name for c in engine_shortlist(engine, query)
                    }
