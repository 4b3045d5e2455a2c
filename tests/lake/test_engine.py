"""Tests for the index-accelerated discovery engine."""

from __future__ import annotations

import inspect
import random

import pytest

from matcher_support import csv_lake

from repro.data.csv_io import write_csv
from repro.datasets import open_data_table, tpcdi_prospect_table
from repro.discovery.search import DiscoveryEngine, prune_then_rerank
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths
from repro.matchers import ComaSchemaMatcher


@pytest.fixture(scope="module")
def lake():
    rng = random.Random(5)
    prospects = tpcdi_prospect_table(num_rows=80)
    vertical = split_vertical(prospects, 0.3, rng)
    horizontal = split_horizontal(prospects, 0.0, rng)
    tables = [
        vertical.second.rename("prospect_slice"),
        horizontal.second.rename("prospect_more_rows"),
        open_data_table(num_rows=80).rename("contracts"),
    ]
    query = horizontal.first.rename("query_prospects")
    return query, tables


@pytest.fixture
def built_lake(lake, tmp_path):
    """An engine over a lake built from CSVs, plus the oracle's repository
    (the tables as read back from those CSVs)."""
    _, tables = lake
    engine = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore())
    repository = csv_lake(tmp_path / "csv", tables, engine.store)
    yield engine, repository
    engine.store.close()


class TestLakeDiscoveryEngine:
    def test_agrees_with_brute_force(self, lake, built_lake):
        query, _ = lake
        engine, repository = built_lake
        brute = DiscoveryEngine(matcher=ComaSchemaMatcher())
        for mode in ("joinable", "unionable", "combined"):
            expected = brute.discover(query, repository, mode=mode)
            got = engine.query(query, mode=mode)
            assert got, f"index pruned every candidate in mode {mode!r}"
            assert [r.table_name for r in got] == [r.table_name for r in expected][: len(got)]

    def test_build_is_incremental(self, built_lake, tmp_path):
        engine, _ = built_lake
        paths = sorted((tmp_path / "csv").glob("*.csv"))
        report = build_from_paths(engine.store, paths)
        assert report.sketched == 0 and report.unchanged == 3  # all cache hits
        index_before = engine.index
        assert engine.index is index_before  # version unchanged -> no rebuild

    def test_index_syncs_incrementally_after_store_mutation(self, lake, built_lake):
        query, _ = lake
        engine, repository = built_lake
        index_before = engine.index
        engine.store.remove_table("contracts")
        # Same index object, refreshed in place from the store delta.
        assert engine.index is index_before
        assert "contracts" not in engine.index.table_names
        names = [r.table_name for r in engine.query(query)]
        assert "contracts" not in names
        # Re-adding flows through the delta path too.
        engine.store.add_table(repository.get("contracts"))
        assert "contracts" in engine.index.table_names

    def test_invalid_mode_rejected(self, lake, built_lake):
        query, _ = lake
        engine, _ = built_lake
        with pytest.raises(ValueError):
            engine.query(query, mode="bogus")

    def test_candidates_loaded_lazily_from_source_paths(self, lake, tmp_path):
        query, tables = lake
        engine = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore())
        for table in tables:
            path = write_csv(table, tmp_path / f"{table.name}.csv")
            engine.store.add_table(table, source_path=path)
        # Candidate values come from the recorded CSVs.
        results = engine.query(query, mode="unionable", top_k=2)
        assert results and results[0].table_name == "prospect_more_rows"
        engine.store.close()

    def test_a_candidate_with_no_csv_cannot_be_ranked(self, lake):
        """The lake is the only source of candidates: a table sketched with
        no source path and no stored payload is dropped from the ranking."""
        query, tables = lake
        with SketchStore() as store, LakeDiscoveryEngine(
            matcher=ComaSchemaMatcher(), store=store
        ) as engine:
            for table in tables:
                store.add_table(table)
            assert engine.query(query) == []
            assert engine.last_query_stats.shortlist_size == len(tables)

    def test_in_memory_surface_is_gone(self, lake, built_lake):
        """No second way to get candidates: no ``build``, no ``repository``
        argument on the query entry points, and a rerank that takes the
        query already prepared (no ``prepared_cache`` of its own)."""
        query, _ = lake
        engine, repository = built_lake
        assert not hasattr(LakeDiscoveryEngine, "build")
        assert "prepared_cache" not in inspect.signature(prune_then_rerank).parameters
        with pytest.raises(TypeError):
            engine.query(query, repository)
        with pytest.raises(TypeError):
            engine.query_many([query], repository=repository)
