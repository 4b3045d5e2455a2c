"""Tests for the repository / discovery engine layer."""

from __future__ import annotations

import pickle
import random
import types

import pytest

from matcher_support import (
    lakebench_lake,
    reference_relatedness,
    reference_semprop_match_prepared,
)
from repro.data.csv_io import read_csv
from repro.data.table import Table
from repro.datasets.fabricated_sources import open_data_table, tpcdi_prospect_table
from repro.discovery import search
from repro.discovery.search import (
    DEFAULT_UNION_THRESHOLD,
    DatasetRepository,
    DiscoveryEngine,
    DiscoveryResult,
    score_prepared,
)
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.semprop.matcher import SemPropMatcher


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


    @pytest.mark.parametrize("mode", ["joinable", "unionable", "combined"])
    def test_ranking_is_every_score_pair_sorted(self, lake, mode):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        pairs = [engine.score_pair(query, candidate) for candidate in repository]
        key = {
            "joinable": lambda r: r.joinability,
            "unionable": lambda r: r.unionability,
            "combined": lambda r: r.scores.combined(),
        }[mode]
        expected = sorted(pairs, key=lambda r: (-key(r), r.table_name))
        ranking = engine.discover(query, repository, mode=mode)
        assert [(r.table_name, r.scores) for r in ranking] == [
            (r.table_name, r.scores) for r in expected
        ]

    def test_equal_scores_rank_by_table_name(self, lake):
        query, _ = lake
        twin = Table("b_twin", {c.name: list(c.values) for c in query.columns})
        repository = DatasetRepository([twin, twin.rename("a_twin"), query])
        ranking = DiscoveryEngine(matcher=ComaSchemaMatcher()).discover(query, repository)
        assert [r.table_name for r in ranking] == ["a_twin", "b_twin"]
        assert ranking[0].scores == ranking[1].scores


#: What the lake engine's rerank is made of: the oracle may call none of it.
_RERANK_NAMES = {
    "prune_then_rerank",
    "score_prepared",
    "sort_discovery_results",
    "mode_score",
    "_TopKCutoff",
    "compute_ranking_bounds",
    "order_by_bound",
    "PreparedTableCache",
}


def _names_reached(function) -> set[str]:
    """Every name *function* looks up, and every name a function it reaches
    looks up: ``DiscoveryEngine`` methods, module functions (resolved in
    their own module) and nested code (lambdas, comprehensions)."""
    names: set[str] = set()
    seen: set[types.CodeType] = set()
    stack = [(function.__code__, function.__globals__)]
    while stack:
        code, namespace = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        stack.extend((c, namespace) for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            target = getattr(DiscoveryEngine, name, None) or namespace.get(name)
            if isinstance(target, types.FunctionType):
                stack.append((target.__code__, target.__globals__))
    return names


class TestOracleIndependence:
    """``discover`` is the reference the lake engine is checked against, so
    it shares only the matcher and the relatedness measures with the rerank."""

    def test_census_reaches_no_rerank_code(self):
        reached = _names_reached(DiscoveryEngine.discover)
        # The walk follows calls: score_pair, relatedness, unionability.
        assert {"score_pair", "get_matches", "relatedness", "unionability"} <= reached
        assert reached.isdisjoint(_RERANK_NAMES)

    @pytest.mark.parametrize(
        "name", sorted(name for name in _RERANK_NAMES if hasattr(search, name))
    )
    def test_ranking_survives_a_broken_rerank(self, lake, monkeypatch, name):
        query, repository = lake
        engine = DiscoveryEngine(matcher=ComaSchemaMatcher())
        expected = engine.discover(query, repository, mode="combined")

        def broken(*args, **kwargs):
            raise AssertionError(f"the oracle reached search.{name}")

        monkeypatch.setattr(search, name, broken)
        ranking = engine.discover(query, repository, mode="combined")
        assert [(r.table_name, r.scores) for r in ranking] == [
            (r.table_name, r.scores) for r in expected
        ]


@pytest.fixture(scope="module")
def gate_pair(tmp_path_factory):
    """The gate lake's 14-column query and an 8-column relative of it."""
    root = lakebench_lake(tmp_path_factory.mktemp("gate_pair") / "gate")
    query = read_csv(root / "queries" / "query_00_0.csv")
    candidate = read_csv(root / "lake" / "rel_00_joinable.csv")
    assert (query.num_columns, candidate.num_columns) == (14, 8)
    return query, candidate


class TestScorePrepared:
    def test_any_candidate_form_scores_alike_with_one_guard_a_side(
        self, gate_pair, monkeypatch
    ):
        """``match_prepared`` guards both sides itself; the rerank's pair
        scorer adds no third ``fingerprint()`` of its own on top of those two."""
        query, candidate = gate_pair
        matcher = SemPropMatcher()
        query_prepared, candidate_prepared = matcher.prepare(query), matcher.prepare(candidate)
        reference = reference_semprop_match_prepared(matcher, query_prepared, candidate_prepared)
        expected = reference_relatedness(reference, query, DEFAULT_UNION_THRESHOLD)
        foreign = CupidMatcher().prepare(candidate)
        assert foreign.fingerprint != matcher.fingerprint()

        calls = []
        fingerprint = SemPropMatcher.fingerprint
        monkeypatch.setattr(
            SemPropMatcher, "fingerprint", lambda self: calls.append(1) or fingerprint(self)
        )
        for form, allowed in ((candidate_prepared, 2), (candidate, 2), (foreign, 3)):
            del calls[:]
            result = score_prepared(matcher, query_prepared, form)
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
        result = DiscoveryEngine(matcher).score_pair(query, candidate)
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
