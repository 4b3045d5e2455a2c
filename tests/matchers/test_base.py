"""Tests for the matcher base API: Match, MatchResult, BaseMatcher."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matcher_support import ReferenceMatchResult
from repro.data.table import ColumnRef, Table
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


class TestMatchObject:
    def test_as_pair(self):
        match = Match(0.4, _ref("s", "a"), _ref("t", "b"))
        assert match.as_pair() == ("a", "b")


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


# Few distinct scores, table names and column names: plenty of score ties,
# equal names across the two tables, duplicate pairs, zeros of both signs
# and negative scores.
_SCORES = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0])
_REFS = st.builds(ColumnRef, st.sampled_from(["s", "t"]), st.sampled_from(["a", "b", "c", "d"]))
_MATCHES = st.lists(st.builds(Match, _SCORES, _REFS, _REFS), max_size=24)

#: Every public way to read a ranking, as ``name -> callable(result)``; views
#: are read back through ``matches`` so both sides compare as lists of Match.
_READS = {
    "len": len,
    "iter": list,
    "index": lambda r: [r[i] for i in range(-len(r), len(r))],
    "matches": lambda r: r.matches,
    "ranked_pairs": lambda r: r.ranked_pairs(),
    "scores": lambda r: list(r.scores().items()),
    "one_to_one": lambda r: r.one_to_one().matches,
    **{f"top_k({k})": lambda r, k=k: r.top_k(k).matches for k in (-1, 0, 1, 3, 100)},
}


class TestColumnsAgainstTheEagerReference:
    """The columnar ``MatchResult`` reads exactly like the eager one did."""

    @given(_MATCHES)
    def test_every_read_of_a_fresh_and_of_an_ordered_result(self, matches):
        reference = ReferenceMatchResult(matches)
        for name, read in _READS.items():
            expected = read(reference)
            fresh = MatchResult(matches)
            assert read(fresh) == expected, name
            assert read(fresh) == expected, f"{name}, second read"
        ordered = MatchResult(matches)
        list(ordered)
        for name, read in _READS.items():
            assert read(ordered) == read(reference), f"{name}, after ordering"

    @given(_MATCHES)
    def test_index_out_of_range_raises(self, matches):
        with pytest.raises(IndexError):
            MatchResult(matches)[len(matches)]

    @given(_MATCHES, st.booleans())
    def test_filter_threshold_at_every_score_before_or_after_ordering(self, matches, order_first):
        reference = ReferenceMatchResult(matches)
        for threshold in sorted({match.score for match in matches} | {0.6, 2.0}):
            result = MatchResult(matches)
            if order_first:
                list(result)
            kept = result.filter_threshold(threshold)
            expected = reference.filter_threshold(threshold)
            assert kept.matches == expected.matches
            assert kept.one_to_one().matches == expected.one_to_one().matches
            assert kept.top_k(2).matches == expected.top_k(2).matches

    @given(_MATCHES)
    def test_best_is_the_first_of_the_ranking_without_ordering_it(self, matches):
        reference = ReferenceMatchResult(matches)
        result = MatchResult(matches)
        assert result.best() == (reference[0] if matches else None)
        list(result)
        assert result.best() == (reference[0] if matches else None)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "x", "y"])),
            _SCORES,
            max_size=12,
        ),
        st.sampled_from(["s", "t"]),
    )
    def test_from_column_scores_keeps_every_pair(self, scores, target_name):
        source = Table("s", {"a": [], "b": [], "c": []})
        target = Table(target_name, {"a": [], "b": [], "x": [], "y": []})
        by_ref = {
            (ColumnRef("s", a), ColumnRef(target_name, b)): score
            for (a, b), score in scores.items()
        }
        result = MatchResult.from_column_scores(source, target, scores)
        assert result.matches == ReferenceMatchResult.from_scores(by_ref, keep_zero=True).matches
        assert all(type(match.score) is float for match in result)


class TestMatchResultTravels:
    @given(_MATCHES, st.booleans())
    def test_pickle_round_trip_ordered_or_not(self, matches, order_first):
        result = MatchResult(matches)
        if order_first:
            list(result)
        assert pickle.loads(pickle.dumps(result)).matches == ReferenceMatchResult(matches).matches

    def test_two_threads_reading_one_result_see_the_same_ranking(self):
        """Ordering is idempotent: a race repeats work, never mixes columns."""
        matches = [
            Match((i * 7 % 5) / 4, ColumnRef("s", f"a{i % 9}"), ColumnRef("t", f"b{i % 11}"))
            for i in range(400)
        ]
        reference = ReferenceMatchResult(matches)
        expected = reference.matches + reference.filter_threshold(0.5).matches
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                result = MatchResult(matches)
                seen: list[list[Match]] = []
                barrier = threading.Barrier(3)

                def read() -> None:
                    barrier.wait(timeout=10)
                    kept = result.filter_threshold(0.5).matches
                    seen.append(result.matches + kept)

                threads = [threading.Thread(target=read) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [expected] * 3
        finally:
            sys.setswitchinterval(interval)
