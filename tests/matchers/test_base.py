"""Tests for the matcher base API: Match, MatchResult, BaseMatcher."""

from __future__ import annotations

import pytest

from repro.data.table import ColumnRef
from repro.matchers.base import BaseMatcher, Match, MatchResult, MatchType


def _ref(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)


@pytest.fixture
def sample_result() -> MatchResult:
    return MatchResult(
        [
            Match(0.2, _ref("s", "a"), _ref("t", "x")),
            Match(0.9, _ref("s", "b"), _ref("t", "y")),
            Match(0.5, _ref("s", "c"), _ref("t", "z")),
        ]
    )


class TestMatchResultOrdering:
    def test_sorted_by_descending_score(self, sample_result):
        scores = [match.score for match in sample_result]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_breaking(self):
        result = MatchResult(
            [
                Match(0.5, _ref("s", "b"), _ref("t", "y")),
                Match(0.5, _ref("s", "a"), _ref("t", "x")),
            ]
        )
        assert result.ranked_pairs() == [("a", "x"), ("b", "y")]

    def test_len_and_getitem(self, sample_result):
        assert len(sample_result) == 3
        assert sample_result[0].score == 0.9


class TestMatchResultViews:
    def test_top_k(self, sample_result):
        top = sample_result.top_k(2)
        assert len(top) == 2
        assert top[0].score == 0.9

    def test_top_k_negative(self, sample_result):
        assert len(sample_result.top_k(-1)) == 0

    def test_ranked_pairs(self, sample_result):
        assert sample_result.ranked_pairs() == [("b", "y"), ("c", "z"), ("a", "x")]

    def test_ranked_ref_pairs(self, sample_result):
        refs = sample_result.ranked_ref_pairs()
        assert refs[0] == (_ref("s", "b"), _ref("t", "y"))

    def test_scores_mapping_keeps_best(self):
        result = MatchResult(
            [
                Match(0.9, _ref("s", "a"), _ref("t", "x")),
                Match(0.3, _ref("s", "a"), _ref("t", "x")),
            ]
        )
        assert result.scores() == {("a", "x"): 0.9}

    def test_filter_threshold(self, sample_result):
        assert len(sample_result.filter_threshold(0.5)) == 2

    def test_one_to_one_greedy(self):
        result = MatchResult(
            [
                Match(0.9, _ref("s", "a"), _ref("t", "x")),
                Match(0.8, _ref("s", "a"), _ref("t", "y")),
                Match(0.7, _ref("s", "b"), _ref("t", "x")),
                Match(0.6, _ref("s", "b"), _ref("t", "y")),
            ]
        )
        one_to_one = result.one_to_one()
        assert one_to_one.ranked_pairs() == [("a", "x"), ("b", "y")]

    def test_to_records(self, sample_result):
        records = sample_result.to_records()
        assert len(records) == 3
        assert records[0]["source_column"] == "b"
        assert records[0]["score"] == 0.9

    def test_from_scores_threshold_and_keep_zero(self):
        scores = {(_ref("s", "a"), _ref("t", "x")): 0.0, (_ref("s", "b"), _ref("t", "y")): 0.7}
        assert len(MatchResult.from_scores(scores)) == 1
        assert len(MatchResult.from_scores(scores, keep_zero=True)) == 2


class TestMatchObject:
    def test_as_pair_and_refs(self):
        match = Match(0.4, _ref("s", "a"), _ref("t", "b"))
        assert match.as_pair() == ("a", "b")
        assert match.as_refs() == (_ref("s", "a"), _ref("t", "b"))


class TestBaseMatcher:
    def test_parameters_exposes_public_attributes(self):
        class Dummy(BaseMatcher):
            name = "Dummy"
            code = "DM"

            def __init__(self) -> None:
                self.alpha = 0.5
                self._hidden = "no"

            def match_prepared(self, source, target) -> MatchResult:
                return MatchResult()

        dummy = Dummy()
        assert dummy.parameters() == {"alpha": 0.5}
        assert "Dummy" in repr(dummy)

    def test_match_types_enum_values(self):
        assert MatchType.VALUE_OVERLAP.value == "value_overlap"
        assert len(MatchType) == 6
