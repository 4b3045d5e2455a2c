"""Tests for the ensemble (composite) matcher."""

from __future__ import annotations

import pytest

from repro.data.table import Column, ColumnRef, Table
from repro.matchers.base import BaseMatcher, Match, MatchResult
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.metrics.ranking import recall_at_ground_truth


class _FixedMatcher(BaseMatcher):
    """A stub matcher returning a predetermined ranking (for unit tests)."""

    name = "Fixed"
    code = "FX"

    def __init__(self, scored_pairs, name="Fixed") -> None:
        self._scored_pairs = scored_pairs
        self.name = name

    def match_prepared(self, source, target) -> MatchResult:
        return MatchResult(
            Match(score, ColumnRef(source.name, s), ColumnRef(target.name, t))
            for s, t, score in self._scored_pairs
        )


@pytest.fixture
def toy_tables():
    source = Table("s", {"a": [1], "b": [2]})
    target = Table("t", {"x": [1], "y": [2]})
    return source, target


class TestEnsembleConstruction:
    def test_requires_base_matchers(self):
        with pytest.raises(ValueError):
            EnsembleMatcher([])

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError):
            EnsembleMatcher([ComaSchemaMatcher()], aggregation="bogus")

    def test_parameters_report_base_matchers(self):
        ensemble = EnsembleMatcher([ComaSchemaMatcher(), JaccardLevenshteinMatcher()])
        params = ensemble.parameters()
        assert params["base_matchers"] == ["ComaSchema", "JaccardLevenshtein"]
        assert params["aggregation"] == "score_average"


class TestAggregationStrategies:
    def test_score_average_combines_normalised_scores(self, toy_tables):
        source, target = toy_tables
        first = _FixedMatcher([("a", "x", 1.0), ("a", "y", 0.0)], name="one")
        second = _FixedMatcher([("a", "x", 0.0), ("a", "y", 1.0)], name="two")
        ensemble = EnsembleMatcher([first, second], aggregation="score_average")
        scores = ensemble.get_matches(source, target).scores()
        assert scores[("a", "x")] == pytest.approx(scores[("a", "y")])

    def test_weighted_average_prefers_heavier_matcher(self, toy_tables):
        source, target = toy_tables
        first = _FixedMatcher([("a", "x", 1.0), ("a", "y", 0.0)], name="one")
        second = _FixedMatcher([("a", "x", 0.0), ("a", "y", 1.0)], name="two")
        ensemble = EnsembleMatcher(
            [first, second], aggregation="score_average", weights={"one": 3.0, "two": 1.0}
        )
        scores = ensemble.get_matches(source, target).scores()
        assert scores[("a", "x")] > scores[("a", "y")]

    def test_score_max_takes_best(self, toy_tables):
        source, target = toy_tables
        first = _FixedMatcher([("a", "x", 0.2), ("a", "y", 0.1)], name="one")
        second = _FixedMatcher([("a", "x", 0.1), ("a", "y", 0.9)], name="two")
        ensemble = EnsembleMatcher([first, second], aggregation="score_max")
        ranked = ensemble.get_matches(source, target).ranked_pairs()
        assert ranked[0] in (("a", "y"), ("a", "x"))
        scores = ensemble.get_matches(source, target).scores()
        assert scores[("a", "y")] == pytest.approx(1.0)

    def test_borda_aggregation_rewards_consistent_rankings(self, toy_tables):
        source, target = toy_tables
        first = _FixedMatcher([("a", "x", 0.9), ("b", "y", 0.8), ("a", "y", 0.1)], name="one")
        second = _FixedMatcher([("a", "x", 0.7), ("b", "y", 0.6), ("b", "x", 0.1)], name="two")
        ensemble = EnsembleMatcher([first, second], aggregation="borda")
        ranked = ensemble.get_matches(source, target).ranked_pairs()
        assert ranked[0] == ("a", "x")
        assert ranked[1] == ("b", "y")


class TestEnsembleOnRealMatchers:
    def test_ensemble_at_least_as_good_as_worst_member(self, noisy_unionable_pair):
        schema = ComaSchemaMatcher()
        instance = JaccardLevenshteinMatcher(threshold=0.8, sample_size=40)
        ensemble = EnsembleMatcher([schema, instance])
        truth = noisy_unionable_pair.ground_truth
        recalls = {}
        for matcher in (schema, instance, ensemble):
            result = matcher.get_matches(noisy_unionable_pair.source, noisy_unionable_pair.target)
            recalls[matcher.name] = recall_at_ground_truth(result.ranked_pairs(), truth)
        assert recalls["Ensemble"] >= min(recalls["ComaSchema"], recalls["JaccardLevenshtein"]) - 0.1

    def test_complete_ranking(self, toy_tables):
        source, target = toy_tables
        ensemble = EnsembleMatcher([ComaSchemaMatcher(), JaccardLevenshteinMatcher(sample_size=10)])
        result = ensemble.get_matches(source, target)
        assert len(result) == 4
        assert all(0.0 <= match.score <= 1.0 for match in result)
