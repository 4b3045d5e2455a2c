"""Tests for ranked effectiveness metrics."""

from __future__ import annotations

import pytest

from repro.metrics.ranking import recall_at_ground_truth, recall_at_k, reciprocal_rank

TRUTH = [("a", "a2"), ("b", "b2"), ("c", "c2")]


def _precision_at_k(ranked, truth, k):
    """Reference: the distinct ground-truth pairs in the top *k*, over *k*."""
    return len(set(ranked[:k]) & set(truth)) / k


class TestRecallAtGroundTruth:
    def test_perfect_ranking(self):
        ranked = [("a", "a2"), ("b", "b2"), ("c", "c2"), ("x", "y")]
        assert recall_at_ground_truth(ranked, TRUTH) == 1.0

    def test_partial_ranking(self):
        ranked = [("a", "a2"), ("x", "y"), ("b", "b2"), ("c", "c2")]
        # top-3 contains 2 relevant of 3
        assert recall_at_ground_truth(ranked, TRUTH) == pytest.approx(2 / 3)

    def test_empty_ground_truth(self):
        assert recall_at_ground_truth([("a", "b")], []) == 0.0

    def test_empty_ranking(self):
        assert recall_at_ground_truth([], TRUTH) == 0.0

    def test_equivalent_to_precision_at_gt_size(self):
        ranked = [("a", "a2"), ("x", "y"), ("b", "b2")]
        assert recall_at_ground_truth(ranked, TRUTH) == _precision_at_k(ranked, TRUTH, len(TRUTH))

    def test_relevant_below_cutoff_not_counted(self):
        ranked = [("x", "1"), ("y", "2"), ("z", "3"), ("a", "a2")]
        assert recall_at_ground_truth(ranked, TRUTH) == 0.0


class TestRecallAtK:
    def test_recall_at_k_grows_with_k(self):
        ranked = [("a", "a2"), ("b", "b2"), ("c", "c2")]
        values = [recall_at_k(ranked, TRUTH, k) for k in (1, 2, 3)]
        assert values == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]


class TestOtherRankMetrics:
    def test_reciprocal_rank(self):
        assert reciprocal_rank([("x", "y"), ("a", "a2")], TRUTH) == 0.5
        assert reciprocal_rank([("x", "y")], TRUTH) == 0.0
