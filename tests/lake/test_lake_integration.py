"""Slow end-to-end test: a 120-table lake, persistence and recall.

Marked ``slow`` — run the fast tier with ``pytest -m "not slow"``.
"""

from __future__ import annotations

import random

import pytest

from matcher_support import csv_lake

from repro.data.table import Column, Table
from repro.datasets import tpcdi_prospect_table
from repro.discovery.search import DatasetRepository, DiscoveryEngine
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths
from repro.matchers import ComaSchemaMatcher

pytestmark = pytest.mark.slow

LAKE_SIZE = 120
TOP_K = 5


@pytest.fixture(scope="module")
def big_lake():
    rng = random.Random(23)
    base = tpcdi_prospect_table(num_rows=60, seed=2)
    horizontal = split_horizontal(base, 0.2, rng)
    query = horizontal.first.rename("query_prospects")
    repository = DatasetRepository([horizontal.second.rename("prospects_rest")])
    for i in range(7):
        vertical = split_vertical(base, rng.uniform(0.3, 0.7), rng)
        repository.add(vertical.second.rename(f"prospects_slice_{i}"), overwrite=False)
    noise_rng = random.Random(31)
    while len(repository) < LAKE_SIZE:
        i = len(repository)
        repository.add(
            Table(
                f"noise_{i}",
                [
                    Column(
                        f"attr{j}_d{i}",
                        [f"tok{noise_rng.randrange(10_000, 99_999)}" for _ in range(30)],
                    )
                    for j in range(4)
                ],
            ),
            overwrite=False,
        )
    return query, repository


def test_lake_survives_reopen_with_identical_topk(big_lake, tmp_path):
    query, repository = big_lake
    path = tmp_path / "lake.sketches"

    engine = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore(path))
    csv_lake(tmp_path / "csv", repository, engine.store)
    assert len(engine.store) == LAKE_SIZE
    first = engine.query(query, mode="combined", top_k=TOP_K)
    engine.store.close()

    reopened = LakeDiscoveryEngine(matcher=ComaSchemaMatcher(), store=SketchStore(path))
    report = build_from_paths(reopened.store, sorted((tmp_path / "csv").glob("*.csv")))
    assert report.sketched == 0  # everything is a cache hit
    second = reopened.query(query, mode="combined", top_k=TOP_K)
    reopened.store.close()

    assert [(r.table_name, r.scores) for r in first] == [
        (r.table_name, r.scores) for r in second
    ]


def test_lake_recall_vs_brute_force(big_lake, tmp_path):
    """The LSH shortlist keeps the oracle's top-k: ``discover`` matches every
    table (as read back from the lake's CSVs) and shares no rerank code with
    the lake engine."""
    query, tables = big_lake
    matcher = ComaSchemaMatcher()
    engine = LakeDiscoveryEngine(matcher=matcher, store=SketchStore())
    repository = csv_lake(tmp_path / "csv", tables, engine.store)
    brute = DiscoveryEngine(matcher=matcher).discover(
        query, repository, mode="combined", top_k=TOP_K
    )
    pruned = engine.query(query, mode="combined", top_k=TOP_K)
    engine.store.close()

    brute_top = {r.table_name for r in brute}
    pruned_top = {r.table_name for r in pruned}
    recall = len(brute_top & pruned_top) / TOP_K
    assert recall >= 0.9
