"""Engine lifecycle contracts the serve daemon depends on.

Regressions pinned here:

* ``close()`` is idempotent — an explicit close followed by ``__exit__``
  (the natural ``with engine: ...; engine.close()`` shape) must not raise;
* the engine never closes the stores it was given;
* the ``last_store_hits`` alias (deprecated in PR 6) is gone —
  ``last_query_stats.store_hits`` is the only surface;
* a query after ``close()`` works — the index is rebuilt and keeps
  following the store — and the next ``close()`` drops it again;
* ``query_many`` answers exactly like sequential ``query`` calls.
"""

from __future__ import annotations

import warnings

import pytest

from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


@pytest.fixture()
def warm_setup(tmp_path):
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(4):
        table = tpcdi_prospect_table(num_rows=14, seed=60 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    matcher = JaccardLevenshteinMatcher(sample_size=8)
    store = SketchStore(tmp_path / "lake.sketches")
    build_from_paths(store, sorted(lake_dir.glob("*.csv")))
    prepared_store = PreparedStore(tmp_path / "lake.sketches.prepared")
    prepare_lake(store, prepared_store, matcher)
    query = tpcdi_prospect_table(num_rows=14, seed=90).rename("query")
    yield matcher, store, prepared_store, query
    prepared_store.close()
    store.close()


class TestIdempotentClose:
    def test_double_close_is_a_no_op(self, warm_setup):
        matcher, store, prepared_store, query = warm_setup
        engine = LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        )
        engine.query(query, top_k=2)
        engine.close()
        engine.close()  # must not raise

    def test_exit_after_explicit_close(self, warm_setup):
        matcher, store, prepared_store, query = warm_setup
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            engine.query(query, top_k=2)
            engine.close()
        # reaching here means __exit__ tolerated the explicit close

    def test_default_engine_leaves_caller_stores_open(self, warm_setup):
        matcher, store, prepared_store, query = warm_setup
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            engine.query(query, top_k=2)
        assert len(store) == 4  # still usable after engine teardown
        assert len(prepared_store) > 0

    def test_query_after_close_revives_and_recloses_cleanly(self, warm_setup):
        matcher, store, prepared_store, query = warm_setup
        engine = LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        )
        engine.close()
        results = engine.query(query, top_k=2)  # stores are caller-owned: fine
        assert results
        engine.close()


    def test_revived_engine_hears_table_removals_again(self, warm_setup):
        """An engine queried again after close() keeps following the store:
        a table removed afterwards is gone from its next shortlist, and the
        index that query rebuilt is dropped by the next close()."""
        matcher, store, prepared_store, query = warm_setup
        engine = LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        )
        engine.query(query, top_k=2)  # builds the cached index
        engine.close()
        try:
            assert engine.query(query, top_k=2)
            assert "t0" in {c.table_name for c in engine.shortlist(query)}
            assert store.remove_table("t0")
            assert "t0" not in {c.table_name for c in engine.shortlist(query)}
        finally:
            engine.close()
        assert engine._index is None  # the rebuilt index was dropped


class TestLastStoreHitsRemoval:
    def test_legacy_attribute_is_gone(self, warm_setup):
        """The PR 6 deprecation ran its course: the alias no longer exists
        and ``QueryStats.store_hits`` is the only way to read the number."""
        matcher, store, prepared_store, query = warm_setup
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            engine.query(query, top_k=2)
            assert not hasattr(engine, "last_store_hits")
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                assert engine.last_query_stats.store_hits == 4


class TestQueryMany:
    def test_matches_sequential_queries(self, warm_setup):
        matcher, store, prepared_store, _ = warm_setup
        queries = [
            tpcdi_prospect_table(num_rows=14, seed=90 + i).rename(f"q{i}")
            for i in range(3)
        ]
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            sequential = [
                [
                    (r.table_name, r.joinability, r.unionability)
                    for r in engine.query(q, mode="unionable", top_k=3)
                ]
                for q in queries
            ]
            batched = engine.query_many(queries, mode="unionable", top_k=3)
        assert [
            [(r.table_name, r.joinability, r.unionability) for r in outcome.results]
            for outcome in batched
        ] == sequential
        for outcome, query in zip(batched, queries):
            assert outcome.stats.query_name == query.name
            assert outcome.stats.rerank_count == 4

    def test_empty_batch(self, warm_setup):
        matcher, store, prepared_store, _ = warm_setup
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            assert engine.query_many([]) == []
