"""Tests for the Similarity Flooding matcher."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.matchers.similarity_flooding.matcher import SimilarityFloodingMatcher
from repro.metrics.ranking import recall_at_ground_truth


class TestSimilarityFloodingMatcher:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SimilarityFloodingMatcher(coefficient_policy="nope")
        with pytest.raises(ValueError):
            SimilarityFloodingMatcher(fixpoint_formula="zz")

    def test_identical_schemas_recovered(self, unionable_pair):
        matcher = SimilarityFloodingMatcher()
        result = matcher.get_matches(unionable_pair.source, unionable_pair.target)
        recall = recall_at_ground_truth(result.ranked_pairs(), unionable_pair.ground_truth)
        assert recall >= 0.9

    def test_complete_ranking_even_for_unconnected_columns(self):
        source = Table("s", {"alpha": ["a"], "beta": [1]})
        target = Table("t", {"gamma": ["b"], "delta": [2]})
        result = SimilarityFloodingMatcher().get_matches(source, target)
        assert len(result) == 4

    def test_similar_names_rank_above_dissimilar(self):
        source = Table("s", {"customer_id": [1, 2], "city": ["a", "b"]})
        target = Table("t", {"customer_identifier": [3, 4], "town_name": ["c", "d"]})
        result = SimilarityFloodingMatcher().get_matches(source, target)
        scores = result.scores()
        assert scores[("customer_id", "customer_identifier")] > scores[("city", "customer_identifier")]

    def test_scores_bounded(self, clients_table, offices_table):
        result = SimilarityFloodingMatcher().get_matches(clients_table, offices_table)
        assert all(0.0 <= match.score <= 1.0 for match in result)

    def test_only_column_pairs_reported(self, clients_table, offices_table):
        result = SimilarityFloodingMatcher().get_matches(clients_table, offices_table)
        source_columns = set(clients_table.column_names)
        target_columns = set(offices_table.column_names)
        for match in result:
            assert match.source.column in source_columns
            assert match.target.column in target_columns

    def test_schema_only_method_ignores_instances(self):
        """Changing the values must not change the ranking (schema-based method)."""
        source_a = Table("s", {"name": ["x", "y"], "amount": [1, 2]})
        source_b = Table("s", {"name": ["totally", "different"], "amount": [99, 100]})
        target = Table("t", {"name": ["p"], "amount": [5]})
        ranking_a = SimilarityFloodingMatcher().get_matches(source_a, target).ranked_pairs()
        ranking_b = SimilarityFloodingMatcher().get_matches(source_b, target).ranked_pairs()
        assert ranking_a == ranking_b
