"""Parity of the lake engine with the discovery oracle.

Fabricates a small lake and answers the same query with
``LakeDiscoveryEngine.query`` (LSH shortlist, then the prune-then-rerank
plan) and with ``DiscoveryEngine.discover`` (match every table, sort), which
shares only the matcher and the relatedness measures with the rerank.  The
lake is built from CSVs, and the oracle ranks the tables as read back from
them.  Both produce identical rankings with identical scores, with every
candidate read from its CSV and with every candidate a payload from the
prepared store.  The shortlist is larger than the lake here, so pruning
cannot drop genuinely related tables and the comparison is exact.
"""

from __future__ import annotations

import random

import pytest

from matcher_support import csv_lake

from repro.data.table import Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import DiscoveryEngine
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake.build import prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher

TOP_K = 5


@pytest.fixture(scope="module")
def lake() -> tuple[Table, list[Table]]:
    rng = random.Random(11)
    base = tpcdi_prospect_table(num_rows=40, seed=2)
    horizontal = split_horizontal(base, 0.3, rng)
    query = horizontal.first.rename("query_prospects")
    tables = [horizontal.second.rename("prospects_full")]
    for i in range(8):
        vertical = split_vertical(base, rng.uniform(0.3, 0.7), rng)
        tables.append(vertical.second.rename(f"slice_{i}"))
    return query, tables


def _signature(results) -> list[tuple[str, float, float]]:
    return [(r.table_name, r.joinability, r.unionability) for r in results]


@pytest.mark.parametrize(
    "matcher_factory",
    [ComaSchemaMatcher, lambda: JaccardLevenshteinMatcher(sample_size=8)],
    ids=["coma-schema", "jaccard-levenshtein"],
)
def test_all_engines_produce_identical_rankings(tmp_path, lake, matcher_factory):
    query, tables = lake
    matcher = matcher_factory()

    store = SketchStore(tmp_path / "parity.sketches")
    lake_engine = LakeDiscoveryEngine(matcher=matcher, store=store)
    repository = csv_lake(tmp_path / "csv", tables, store)

    oracle = DiscoveryEngine(matcher=matcher).discover(
        query, repository, mode="combined", top_k=TOP_K
    )
    serial = lake_engine.query(query, mode="combined", top_k=TOP_K)

    assert _signature(serial) == _signature(oracle)
    store.close()


@pytest.mark.parametrize(
    "matcher_factory",
    [ComaSchemaMatcher, lambda: JaccardLevenshteinMatcher(sample_size=8)],
    ids=["coma-schema", "jaccard-levenshtein"],
)
def test_warm_rerank_from_the_prepared_store_matches_brute_force(
    tmp_path, lake, matcher_factory
):
    """Every candidate is a stored payload, or for a schema-based matcher
    its sketch: the CSVs are gone by query time."""
    query, tables = lake
    matcher = matcher_factory()

    with SketchStore(tmp_path / "warm.sketches") as store, PreparedStore(
        tmp_path / "warm.sketches.prepared"
    ) as prepared_store:
        engine = LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        )
        repository = csv_lake(tmp_path / "csv", tables, store)
        prepare_lake(store, prepared_store, matcher)
        for path in (tmp_path / "csv").glob("*.csv"):
            path.unlink()
        warm = engine.query(query, mode="combined", top_k=TOP_K)
        stats = engine.last_query_stats
    oracle = DiscoveryEngine(matcher=matcher).discover(
        query, repository, mode="combined", top_k=TOP_K
    )

    assert _signature(warm) == _signature(oracle)
    assert stats.rerank_count == len(repository)
    assert stats.store_hits == (stats.rerank_count if matcher.uses_instances else 0)
