"""Tests for the repository / discovery engine layer."""

from __future__ import annotations

import pickle
import random

import pytest

from matcher_support import (
    lakebench_lake,
    reference_relatedness,
    reference_semprop_match_prepared,
)
from repro.data.csv_io import read_csv
from repro.datasets import open_data_table, tpcdi_prospect_table
from repro.discovery.search import (
    DatasetRepository,
    DiscoveryEngine,
    DiscoveryResult,
    PairScorer,
)
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers import ComaSchemaMatcher, CupidMatcher, SemPropMatcher


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


class TestDatasetRepository:
    def test_add_get_remove(self):
        table = tpcdi_prospect_table(num_rows=10)
        repository = DatasetRepository()
        repository.add(table)
        assert len(repository) == 1
        assert table.name in repository
        assert repository.get(table.name) is table
        repository.remove(table.name)
        assert len(repository) == 0
        repository.remove("not-there")  # no error

    def test_iteration_and_names(self, lake):
        _, repository = lake
        assert set(repository.table_names) == {t.name for t in repository}

    def test_iteration_order_is_insertion_order(self):
        tables = [
            tpcdi_prospect_table(num_rows=5).rename(name)
            for name in ("zeta", "alpha", "mid")
        ]
        repository = DatasetRepository(tables)
        assert repository.table_names == ["zeta", "alpha", "mid"]
        assert [t.name for t in repository] == ["zeta", "alpha", "mid"]
        # Re-adding keeps the original position.
        repository.add(tables[1].rename("alpha"))
        assert repository.table_names == ["zeta", "alpha", "mid"]

    def test_add_without_overwrite_rejects_collisions(self):
        table = tpcdi_prospect_table(num_rows=5)
        repository = DatasetRepository([table])
        with pytest.raises(ValueError, match="already contains"):
            repository.add(table, overwrite=False)
        repository.add(table)  # default still replaces silently
        assert len(repository) == 1


class TestDiscoveryEngine:
    def test_unionable_candidate_ranked_first(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        ranking = engine.discover(query, repository, mode="unionable")
        assert ranking[0].table_name == "prospect_more_rows"
        assert ranking[0].unionability >= ranking[-1].unionability

    def test_joinable_mode_prefers_related_tables(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        ranking = engine.discover(query, repository, mode="joinable")
        related = {"prospect_more_rows", "prospect_slice"}
        assert ranking[0].table_name in related
        assert ranking[-1].table_name == "contracts"

    def test_combined_mode_and_top_k(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        ranking = engine.discover(query, repository, mode="combined", top_k=2)
        assert len(ranking) == 2
        assert all(isinstance(result, DiscoveryResult) for result in ranking)

    def test_invalid_mode_rejected(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        with pytest.raises(ValueError):
            engine.discover(query, repository, mode="bogus")

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_non_positive_top_k_rejected(self, lake, top_k):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        with pytest.raises(ValueError, match="top_k must be at least 1"):
            engine.discover(query, repository, top_k=top_k)

    def test_query_table_excluded_from_candidates(self, lake):
        query, repository = lake
        repository.add(query)
        try:
            engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
            ranking = engine.discover(query, repository)
            assert all(result.table_name != query.name for result in ranking)
        finally:
            repository.remove(query.name)

    def test_score_pair_returns_matches(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        result = engine.score_pair(query, repository.get("prospect_slice"))
        assert len(result.matches) > 0
        assert 0.0 <= result.joinability <= 1.0
        assert 0.0 <= result.unionability <= 1.0


@pytest.fixture(scope="module")
def gate_pair(tmp_path_factory):
    """The gate lake's 14-column query and an 8-column relative of it."""
    root = lakebench_lake(tmp_path_factory.mktemp("gate_pair") / "gate")
    query = read_csv(root / "queries" / "query_00_0.csv")
    candidate = read_csv(root / "lake" / "rel_00_joinable.csv")
    assert (query.num_columns, candidate.num_columns) == (14, 8)
    return query, candidate


class TestPairScorer:
    def test_any_candidate_form_scores_alike_with_one_guard_a_side(
        self, gate_pair, monkeypatch
    ):
        """``match_prepared`` guards both sides itself; the scorer adds no
        third ``fingerprint()`` of its own on top of those two."""
        query, candidate = gate_pair
        matcher = SemPropMatcher()
        scorer = PairScorer(matcher)
        query_prepared, candidate_prepared = matcher.prepare(query), matcher.prepare(candidate)
        reference = reference_semprop_match_prepared(matcher, query_prepared, candidate_prepared)
        expected = reference_relatedness(reference, query, scorer.union_threshold)
        foreign = CupidMatcher().prepare(candidate)
        assert foreign.fingerprint != matcher.fingerprint()

        calls = []
        fingerprint = SemPropMatcher.fingerprint
        monkeypatch.setattr(
            SemPropMatcher, "fingerprint", lambda self: calls.append(1) or fingerprint(self)
        )
        for form, allowed in ((candidate_prepared, 2), (candidate, 2), (foreign, 3)):
            del calls[:]
            result = scorer.score_prepared(query_prepared, form)
            # The guard, once a side; re-preparing stamps the new payload too.
            assert len(calls) <= allowed
            assert result.table_name == candidate.name
            assert result.scores == expected
            assert result.matches.matches == reference.matches


class TestResultsTravel:
    def test_a_result_pickles_as_columns_not_objects(self, gate_pair):
        """What one scored candidate weighs when it crosses a process."""
        query, candidate = gate_pair
        matcher = SemPropMatcher()
        result = PairScorer(matcher).score_pair(query, candidate)
        eager = DiscoveryResult(
            table_name=result.table_name,
            scores=result.scores,
            matches=reference_semprop_match_prepared(
                matcher, matcher.prepare(query), matcher.prepare(candidate)
            ),
        )

        def shipped(shipped_result) -> bytes:
            return pickle.dumps(shipped_result)

        # The eager form of this 14 x 8 pair weighed 7,607 bytes at PR 19.
        assert len(shipped(result)) < 7607 / 3
        assert len(shipped(result)) < len(shipped(eager)) / 3
        back = pickle.loads(shipped(result))
        assert back.scores == result.scores
        assert back.matches.matches == result.matches.matches == eager.matches.matches
