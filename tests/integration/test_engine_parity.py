"""Parity of the discovery engines through the shared prune-then-rerank core.

Fabricates a small lake and answers the same query three ways — brute-force
scan, index-pruned ``DiscoveryEngine.discover(index=)`` and
``LakeDiscoveryEngine.query`` — and asserts all three produce identical
rankings with identical scores; so does the lake engine when every
candidate is a payload from its prepared store.  The shortlist is larger
than the lake here, so pruning cannot drop genuinely related tables and the
comparison is exact.
"""

from __future__ import annotations

import random

import pytest

from repro.data.table import Table
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import DatasetRepository, DiscoveryEngine
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake import LakeDiscoveryEngine, SketchStore
from repro.matchers.coma import ComaSchemaMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher

TOP_K = 5


@pytest.fixture(scope="module")
def lake() -> tuple[Table, DatasetRepository]:
    rng = random.Random(11)
    base = tpcdi_prospect_table(num_rows=40, seed=2)
    horizontal = split_horizontal(base, 0.3, rng)
    query = horizontal.first.rename("query_prospects")
    repository = DatasetRepository()
    repository.add(horizontal.second.rename("prospects_full"))
    for i in range(8):
        vertical = split_vertical(base, rng.uniform(0.3, 0.7), rng)
        repository.add(vertical.second.rename(f"slice_{i}"))
    return query, repository


def _signature(results) -> list[tuple[str, float, float]]:
    return [(r.table_name, r.joinability, r.unionability) for r in results]


@pytest.mark.parametrize(
    "matcher_factory",
    [ComaSchemaMatcher, lambda: JaccardLevenshteinMatcher(sample_size=8)],
    ids=["coma-schema", "jaccard-levenshtein"],
)
def test_all_engines_produce_identical_rankings(tmp_path, lake, matcher_factory):
    query, repository = lake
    matcher = matcher_factory()

    store = SketchStore(tmp_path / "parity.sketches")
    lake_engine = LakeDiscoveryEngine(matcher=matcher, store=store)
    lake_engine.build(repository)

    brute_engine = DiscoveryEngine(matcher=matcher)
    brute = brute_engine.discover(query, repository, mode="combined", top_k=TOP_K)
    indexed = brute_engine.discover(
        query, repository, mode="combined", top_k=TOP_K, index=lake_engine.index
    )
    serial = lake_engine.query(query, repository, mode="combined", top_k=TOP_K)

    assert _signature(indexed) == _signature(brute)
    assert _signature(serial) == _signature(brute)
    store.close()


@pytest.mark.parametrize(
    "matcher_factory",
    [ComaSchemaMatcher, lambda: JaccardLevenshteinMatcher(sample_size=8)],
    ids=["coma-schema", "jaccard-levenshtein"],
)
def test_warm_rerank_from_the_prepared_store_matches_brute_force(
    tmp_path, lake, matcher_factory
):
    """No repository and no CSVs: every candidate is a stored payload."""
    query, repository = lake
    matcher = matcher_factory()
    brute = DiscoveryEngine(matcher=matcher).discover(
        query, repository, mode="combined", top_k=TOP_K
    )

    with SketchStore(tmp_path / "warm.sketches") as store, PreparedStore(
        tmp_path / "warm.sketches.prepared"
    ) as prepared_store:
        engine = LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        )
        engine.build(repository)
        for table in repository:
            prepared_store.prepare(matcher, table)
        warm = engine.query(query, mode="combined", top_k=TOP_K)
        stats = engine.last_query_stats

    assert _signature(warm) == _signature(brute)
    assert stats.store_hits == stats.rerank_count == len(repository)
