"""Tests of the process-pool lake build and prepared-store pre-warming.

The contract under test: worker processes only read and sketch/prepare;
every SQLite write happens in the calling process (single-writer), and the
parallel results are indistinguishable from the serial ones.
"""

from __future__ import annotations

import pytest
from matcher_support import csv_lake, prospect_lake

from repro.data.csv_io import write_csv
from repro.data.table import Column, Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


@pytest.fixture
def lake_dir(tmp_path):
    directory = tmp_path / "lake"
    directory.mkdir()
    for i in range(6):
        table = tpcdi_prospect_table(num_rows=20, seed=50 + i).rename(f"table_{i}")
        write_csv(table, directory / f"{table.name}.csv")
    return directory


def _paths(lake_dir):
    return sorted(lake_dir.glob("*.csv"))


class TestParallelBuild:
    def test_parallel_equals_serial(self, tmp_path, lake_dir):
        serial_store = SketchStore(tmp_path / "serial.sketches")
        parallel_store = SketchStore(tmp_path / "parallel.sketches")
        with serial_store, parallel_store:
            serial = build_from_paths(serial_store, _paths(lake_dir))
            parallel = build_from_paths(parallel_store, _paths(lake_dir), workers=2)
            assert (serial.sketched, serial.unchanged) == (6, 0)
            assert (parallel.sketched, parallel.unchanged) == (6, 0)
            assert serial_store.table_names == parallel_store.table_names
            for name in serial_store.table_names:
                assert serial_store.get(name) == parallel_store.get(name)
                assert serial_store.source_path(name) == parallel_store.source_path(name)

    def test_parallel_rebuild_is_all_cache_hits(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, _paths(lake_dir), workers=2)
            version = store.version
            again = build_from_paths(store, _paths(lake_dir), workers=2)
            assert (again.sketched, again.unchanged) == (0, 6)
            assert store.version == version  # nothing was rewritten

    def test_changed_csv_is_resketched(self, tmp_path, lake_dir):
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, _paths(lake_dir), workers=2)
            changed = Table("table_0", [Column("only", ["x", "y"])])
            write_csv(changed, lake_dir / "table_0.csv")
            report = build_from_paths(store, _paths(lake_dir), workers=2)
            assert (report.sketched, report.unchanged) == (1, 5)
            assert store.get("table_0").num_columns == 1

    def test_unreadable_csv_is_skipped_and_reported(self, tmp_path, lake_dir):
        (lake_dir / "broken.csv").write_bytes(b"\xff\xfe\x00broken\x00")
        messages: list[str] = []
        with SketchStore(tmp_path / "lake.sketches") as store:
            report = build_from_paths(
                store, _paths(lake_dir), workers=2, on_unreadable=messages.append
            )
        assert report.sketched == 6
        assert report.unreadable == ["broken"]
        assert messages and "broken" in messages[0]

    def test_single_worker_values_run_serially(self, tmp_path, lake_dir):
        for workers in (None, 0, 1):
            with SketchStore() as store:
                report = build_from_paths(store, _paths(lake_dir), workers=workers)
                assert report.sketched == 6


class TestPrepareLake:
    def test_parallel_equals_serial(self, tmp_path, lake_dir):
        matcher = JaccardLevenshteinMatcher()
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, _paths(lake_dir))
            with PreparedStore() as serial, PreparedStore() as parallel:
                serial_report = prepare_lake(store, serial, matcher)
                parallel_report = prepare_lake(store, parallel, matcher, workers=2)
                assert serial_report.prepared == parallel_report.prepared == 6
                fingerprint = matcher.fingerprint()
                for name, content_hash, *_ in store.raw_keys():
                    a = serial.get(fingerprint, name, content_hash)
                    b = parallel.get(fingerprint, name, content_hash)
                    assert a is not None and b is not None
                    assert a.payload == b.payload

    def test_rerun_skips_already_stored(self, tmp_path, lake_dir):
        matcher = JaccardLevenshteinMatcher()
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, _paths(lake_dir))
            with PreparedStore() as prepared_store:
                first = prepare_lake(store, prepared_store, matcher)
                second = prepare_lake(store, prepared_store, matcher, workers=2)
                assert first.prepared == 6
                assert second.prepared == 0
                assert second.already_stored == 6

    def test_tables_without_source_are_reported_missing(self, clients_table):
        matcher = JaccardLevenshteinMatcher()
        with SketchStore() as store:
            store.add_table(clients_table)  # in-memory, no source path
            with PreparedStore() as prepared_store:
                report = prepare_lake(store, prepared_store, matcher)
                assert report.prepared == 0
                assert report.missing == ["clients"]

    def test_a_row_the_codec_refuses_skips_its_table(self, tmp_path, caplog):
        """An Ensemble with Cupid prepares a schema tree, which no prepared
        row can hold: each table is skipped with a warning and reported, as
        ``build_from_paths(prepare=...)`` skips it, and nothing is stored.
        An unguarded ``put`` used to raise out of ``prepare_lake`` instead."""
        _, tables = prospect_lake(2)
        matcher = EnsembleMatcher([CupidMatcher(), JaccardLevenshteinMatcher()])
        with SketchStore(tmp_path / "lake.sketches") as store:
            csv_lake(tmp_path / "lake", tables, store)
            with PreparedStore() as prepared_store, caplog.at_level("WARNING"):
                report = prepare_lake(store, prepared_store, matcher)
                assert report.prepared == 0
                assert report.refused == sorted(table.name for table in tables)
                assert len(prepared_store) == 0
        assert caplog.text.count("cannot store the prepared row") == 3

    def test_warm_query_answers_without_csvs(self, tmp_path, lake_dir):
        """The decisive fast-path proof: once the prepared store is warm, a
        query answers identically even after every CSV is deleted."""
        matcher = JaccardLevenshteinMatcher()
        query = tpcdi_prospect_table(num_rows=20, seed=99).rename("query")
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, _paths(lake_dir))
            cold_engine = LakeDiscoveryEngine(matcher=matcher, store=store)
            cold = cold_engine.query(query, top_k=3)

            with PreparedStore() as prepared_store:
                prepare_lake(store, prepared_store, matcher, workers=2)
                for path in _paths(lake_dir):
                    path.unlink()
                warm_engine = LakeDiscoveryEngine(
                    matcher=matcher, store=store, prepared_store=prepared_store
                )
                warm = warm_engine.query(query, top_k=3)
                assert [
                    (r.table_name, r.joinability, r.unionability) for r in warm
                ] == [(r.table_name, r.joinability, r.unionability) for r in cold]
                stats = warm_engine.last_query_stats
                assert stats.store_hits == stats.rerank_count
