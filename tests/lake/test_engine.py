"""Tests for the index-accelerated discovery engine."""

from __future__ import annotations

import random

import pytest

from repro.data.csv_io import write_csv
from repro.datasets import open_data_table, tpcdi_prospect_table
from repro.discovery.search import DatasetRepository, DiscoveryEngine
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake import LakeDiscoveryEngine, SketchStore
from repro.matchers import ComaSchemaMatcher


@pytest.fixture(scope="module")
def lake():
    rng = random.Random(5)
    prospects = tpcdi_prospect_table(num_rows=80)
    vertical = split_vertical(prospects, 0.3, rng)
    horizontal = split_horizontal(prospects, 0.0, rng)
    repository = DatasetRepository(
        [
            vertical.second.rename("prospect_slice"),
            horizontal.second.rename("prospect_more_rows"),
            open_data_table(num_rows=80).rename("contracts"),
        ]
    )
    query = horizontal.first.rename("query_prospects")
    return query, repository


@pytest.fixture
def engine(lake):
    _, repository = lake
    engine = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore())
    engine.build(repository)
    yield engine
    engine.store.close()


class TestLakeDiscoveryEngine:
    def test_agrees_with_brute_force(self, lake, engine):
        query, repository = lake
        brute = DiscoveryEngine(matcher=ComaSchemaMatcher())
        for mode in ("joinable", "unionable", "combined"):
            expected = brute.discover(query, repository, mode=mode)
            got = engine.query(query, repository, mode=mode)
            assert got, f"index pruned every candidate in mode {mode!r}"
            assert [r.table_name for r in got] == [r.table_name for r in expected][: len(got)]

    def test_build_is_incremental(self, lake, engine):
        _, repository = lake
        assert engine.build(repository) == 0  # all cache hits
        index_before = engine.index
        assert engine.index is index_before  # version unchanged -> no rebuild

    def test_index_syncs_incrementally_after_store_mutation(self, lake, engine):
        query, repository = lake
        index_before = engine.index
        engine.store.remove_table("contracts")
        # Same index object, refreshed in place from the store delta.
        assert engine.index is index_before
        assert "contracts" not in engine.index.table_names
        names = [r.table_name for r in engine.query(query, repository)]
        assert "contracts" not in names
        # Re-adding flows through the delta path too.
        engine.store.add_table(repository.get("contracts"))
        assert "contracts" in engine.index.table_names

    def test_invalid_mode_rejected(self, lake, engine):
        query, repository = lake
        with pytest.raises(ValueError):
            engine.query(query, repository, mode="bogus")

    def test_candidates_loaded_lazily_from_source_paths(self, lake, tmp_path):
        query, repository = lake
        paths = {}
        for table in repository:
            paths[table.name] = str(write_csv(table, tmp_path / f"{table.name}.csv"))
        engine = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore())
        engine.build(repository, source_paths=paths)
        # No repository passed: candidate values come from the recorded CSVs.
        results = engine.query(query, mode="unionable", top_k=2)
        assert results and results[0].table_name == "prospect_more_rows"
        engine.store.close()
