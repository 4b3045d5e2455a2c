"""Tests for table-level relatedness scores."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matcher_support import ReferenceMatchResult, reference_relatedness, reference_unionability
from repro.data.table import ColumnRef, Table
from repro.discovery.relatedness import RelatednessScores, joinability, relatedness, unionability
from repro.matchers.base import Match, MatchResult


def _result(scored_pairs: list[tuple[str, str, float]]) -> MatchResult:
    return MatchResult(
        Match(score, ColumnRef("q", source), ColumnRef("c", target))
        for source, target, score in scored_pairs
    )


@pytest.fixture
def query_table() -> Table:
    return Table("q", {"a": [1], "b": [2], "c": [3], "d": [4]})


class TestJoinability:
    def test_uses_best_pair(self):
        result = _result([("a", "x", 0.9), ("b", "y", 0.2)])
        assert joinability(result) == 0.9

    def test_empty_result(self):
        assert joinability(MatchResult()) == 0.0


class TestUnionability:
    def test_counts_strong_one_to_one_partners(self, query_table):
        result = _result([("a", "x", 0.9), ("b", "y", 0.8), ("c", "z", 0.2), ("d", "w", 0.1)])
        assert unionability(result, query_table, threshold=0.5) == pytest.approx(0.5)

    def test_respects_one_to_one_constraint(self, query_table):
        # Both query columns point at the same target; only one can count.
        result = _result([("a", "x", 0.9), ("b", "x", 0.9)])
        assert unionability(result, query_table, threshold=0.5) == pytest.approx(0.25)

    def test_empty_query(self):
        empty = Table("empty", {})
        assert unionability(_result([("a", "x", 1.0)]), empty) == 0.0

    def test_score_bounded_by_one(self, query_table):
        result = _result([(name, name + "_t", 1.0) for name in query_table.column_names])
        assert unionability(result, query_table) == 1.0


class TestRelatedness:
    def test_bundle(self, query_table):
        scores = relatedness(_result([("a", "x", 0.7), ("b", "y", 0.6)]), query_table, threshold=0.5)
        assert isinstance(scores, RelatednessScores)
        assert scores.joinability == 0.7
        assert scores.best_pair == ("a", "x")
        assert scores.unionability == pytest.approx(0.5)

    def test_combined_weighting(self):
        scores = RelatednessScores(joinability=1.0, unionability=0.0, best_pair=None)
        assert scores.combined() == 0.5
        scores = RelatednessScores(joinability=0.7, unionability=0.3, best_pair=None)
        assert scores.combined() == 0.5 * 0.7 + 0.5 * 0.3


_SCORES = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.55, 0.5500000000000002, 0.75, 1.0])
_SCORE_MAPS = st.dictionaries(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["a", "b", "x", "y", "z"])),
    _SCORES,
    max_size=20,
)


class TestAgainstTheWholeRankingReference:
    """Reading only the best match and the at-least-threshold part is exact."""

    @given(_SCORE_MAPS, st.sampled_from(["q", "c"]), st.integers(0, 5))
    def test_relatedness_at_every_score_as_threshold(self, scores, candidate, query_columns):
        query = Table("q", {name: [] for name in "abcde"[:query_columns]})
        matches = [
            Match(score, ColumnRef("q", source), ColumnRef(candidate, target))
            for (source, target), score in scores.items()
        ]
        reference = ReferenceMatchResult(matches)
        for threshold in sorted(set(scores.values()) | {0.55, 2.0}):
            result = MatchResult(matches)
            assert relatedness(result, query, threshold) == reference_relatedness(
                reference, query, threshold
            )
            assert joinability(result) == (reference[0].score if matches else 0.0)
            assert unionability(result, query, threshold) == reference_unionability(
                reference, query, threshold
            )
            # ... and what was read on the way changed nothing about the rest.
            assert result.matches == reference.matches

    def test_scores_are_plain_floats_whatever_the_matches_hold(self, query_table):
        result = _result([("a", "x", np.float32(0.75)), ("b", "y", 1)])
        scores = relatedness(result, query_table, threshold=0.5)
        assert type(scores.joinability) is float and scores.joinability == 1.0
        assert type(scores.unionability) is float
