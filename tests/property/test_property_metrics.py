"""Property-based tests for the ranked evaluation metrics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.ranking import recall_at_ground_truth, recall_at_k

pair = st.tuples(st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=4))
pair_lists = st.lists(pair, max_size=25)
pair_sets = st.lists(pair, max_size=10, unique=True)


def _precision_at_k(ranked, truth, k):
    """Reference: the distinct ground-truth pairs in the top *k*, over *k*."""
    return len(set(ranked[:k]) & set(truth)) / k


class TestRecallAtGroundTruthProperties:
    @given(pair_lists, pair_sets)
    def test_bounded(self, ranked, truth):
        assert 0.0 <= recall_at_ground_truth(ranked, truth) <= 1.0

    @given(pair_sets)
    def test_perfect_when_ranking_equals_truth(self, truth):
        if truth:
            assert recall_at_ground_truth(list(truth), truth) == 1.0

    @given(pair_lists, pair_sets)
    def test_prepending_relevant_match_never_hurts(self, ranked, truth):
        if not truth:
            return
        relevant = truth[0]
        improved = [relevant] + [p for p in ranked if p != relevant]
        assert recall_at_ground_truth(improved, truth) >= recall_at_ground_truth(ranked, truth) - 1e-9

    @given(pair_lists, pair_sets)
    def test_equals_precision_at_ground_truth_size(self, ranked, truth):
        if truth:
            assert recall_at_ground_truth(ranked, truth) == _precision_at_k(ranked, truth, len(truth))


class TestOtherMetricProperties:
    @given(pair_lists, pair_sets, st.integers(min_value=0, max_value=30))
    def test_recall_at_k_bounded(self, ranked, truth, k):
        assert 0.0 <= recall_at_k(ranked, truth, k) <= 1.0

    @given(pair_lists, pair_sets)
    def test_recall_monotone_in_k(self, ranked, truth):
        previous = 0.0
        for k in range(1, len(ranked) + 1):
            current = recall_at_k(ranked, truth, k)
            assert current >= previous - 1e-9
            previous = current
