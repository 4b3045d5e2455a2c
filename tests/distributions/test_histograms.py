"""Tests for quantile histograms."""

from __future__ import annotations

import pytest

from repro.distributions.histograms import (
    QuantileHistogram,
    build_histogram,
    build_histogram_pair,
    rank_values,
)


class TestRankValues:
    def test_numeric_ranks_follow_order(self):
        ranks = rank_values([30, 10, 20])
        assert ranks[10] == 0
        assert ranks[20] == 1
        assert ranks[30] == 2

    def test_duplicate_values_share_rank(self):
        ranks = rank_values([5, 5, 7])
        assert ranks[5] == 0
        assert ranks[7] == 1

    def test_string_ranks_lexicographic(self):
        ranks = rank_values(["banana", "apple", "cherry"])
        assert ranks["apple"] < ranks["banana"] < ranks["cherry"]

    def test_mixed_values_fall_back_to_strings(self):
        ranks = rank_values([10, "apple"])
        assert set(ranks) == {10, "apple"}

    @pytest.mark.parametrize("values", [["b", "a", "c"], [30, 10, 20, 10], [10, "apple"]])
    def test_a_one_pass_iterable_ranks_like_its_list(self, values):
        assert rank_values(value for value in values) == rank_values(values)


class TestBuildHistogram:
    def test_weights_sum_to_one(self):
        values = list(range(100))
        ranks = rank_values(values)
        histogram = build_histogram(values, ranks, num_buckets=10)
        assert sum(histogram.weights) == pytest.approx(1.0)
        assert histogram.num_buckets == 10

    def test_unknown_values_ignored(self):
        ranks = rank_values([1, 2, 3])
        histogram = build_histogram([1, 2, 99], ranks, num_buckets=3)
        assert sum(histogram.weights) == pytest.approx(1.0)

    def test_empty_histogram(self):
        histogram = build_histogram([], {}, num_buckets=5)
        assert histogram.is_empty

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            build_histogram([1], {1: 0}, num_buckets=0)

    def test_uniform_values_concentrate_in_one_bucket(self):
        values = [5] * 50
        ranks = rank_values(values)
        histogram = build_histogram(values, ranks, num_buckets=4, max_rank=0)
        assert max(histogram.weights) == pytest.approx(1.0)


class TestBuildHistogramPair:
    def test_pair_shares_grid(self):
        hist_a, hist_b = build_histogram_pair([1, 2, 3], [3, 4, 5], num_buckets=6)
        assert hist_a.bucket_edges == hist_b.bucket_edges

    def test_identical_columns_identical_histograms(self):
        values = list(range(20))
        hist_a, hist_b = build_histogram_pair(values, list(values), num_buckets=5)
        assert hist_a.weights == pytest.approx(hist_b.weights)

    def test_empty_inputs(self):
        hist_a, hist_b = build_histogram_pair([], [], num_buckets=5)
        assert hist_a.is_empty and hist_b.is_empty
