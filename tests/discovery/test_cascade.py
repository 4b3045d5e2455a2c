"""Unit tests for the rerank cascade primitives (bounds, cutoff, mode score).

The end-to-end exactness suite over every registered matcher, and the one
bound rule (a finite bound skips, ``+inf`` never does), live in
``tests/lake/test_cascade_engine.py``: stage-1 signals come only from the
lake engine.  This module covers the primitives.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datasets import tpcdi_prospect_table
from repro.discovery.cascade import mode_bound
from repro.discovery.search import (
    DatasetRepository,
    DiscoveryEngine,
    _TopKCutoff,
    mode_score,
)
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


@pytest.fixture(scope="module")
def lake():
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


class TestTopKCutoff:
    def test_no_cutoff_until_k_scores(self):
        cutoff = _TopKCutoff(3)
        assert cutoff.value is None
        cutoff.observe(0.5)
        cutoff.observe(0.1)
        assert cutoff.value is None
        cutoff.observe(0.9)
        assert cutoff.value == 0.1

    def test_cutoff_tightens_monotonically(self):
        cutoff = _TopKCutoff(2)
        assert cutoff.observe(0.2) is False  # heap not full yet
        assert cutoff.observe(0.4) is True  # heap full: the cutoff appears
        assert cutoff.value == 0.2
        assert cutoff.observe(0.1) is False  # below the kth best: no change
        assert cutoff.observe(0.5) is True  # evicts 0.2 -> cutoff rises
        assert cutoff.value == 0.4

    def test_unbounded_k_never_cuts(self):
        cutoff = _TopKCutoff(None)
        assert cutoff.observe(1.0) is False
        assert cutoff.value is None


class TestModeBound:
    def test_infinite_pair_bound_stays_infinite(self):
        for mode in ("joinable", "unionable", "combined"):
            assert mode_bound(math.inf, mode) == math.inf

    def test_union_bound_is_zero_below_threshold(self):
        assert mode_bound(0.4, "unionable") == 0.0
        assert mode_bound(0.6, "unionable") == 1.0

    def test_combined_blends_half_half(self):
        assert mode_bound(0.4, "combined") == pytest.approx(0.2)
        assert mode_bound(0.8, "combined") == pytest.approx(0.9)


class TestModeScore:
    def test_matches_sort_keys(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        results = engine.discover(query, repository, mode="combined")
        for result in results:
            assert mode_score(result, "joinable") == result.joinability
            assert mode_score(result, "unionable") == result.unionability
            assert mode_score(result, "combined") == result.scores.combined()

    def test_unknown_mode_rejected(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        result = engine.discover(query, repository, top_k=1)[0]
        with pytest.raises(ValueError):
            mode_score(result, "bogus")
