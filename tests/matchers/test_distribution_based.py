"""Tests for the distribution-based matcher and its clustering machinery."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.matchers.distribution_based.matcher import DistributionBasedMatcher
from repro.matchers.distribution_based.clustering import connected_components, refine_cluster
from repro.metrics.ranking import recall_at_ground_truth


class TestConnectedComponents:
    def test_no_edges_gives_singletons(self):
        components = connected_components(["a", "b", "c"], [])
        assert len(components) == 3

    def test_chain_merges(self):
        components = connected_components(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3]

    def test_unknown_edge_endpoints_ignored(self):
        components = connected_components(["a"], [("x", "y")])
        assert components == [{"a"}]


class TestRefineCluster:
    def test_empty_candidates_gives_singletons(self):
        refinement = refine_cluster(["a", "b"], {})
        assert refinement.accepted_edges == []
        assert len(refinement.clusters) == 2

    def test_good_edges_accepted(self):
        quality = {("a", "x"): 0.9, ("b", "y"): 0.8}
        refinement = refine_cluster(["a", "b", "x", "y"], quality)
        assert set(refinement.accepted_edges) == set(quality)

    def test_transitivity_enforced_for_triangles(self):
        # (a,b) and (b,c) strong, (a,c) missing -> ILP cannot take both.
        quality = {("a", "b"): 0.9, ("b", "c"): 0.8}
        refinement = refine_cluster(["a", "b", "c"], quality)
        assert len(refinement.accepted_edges) <= 1 or ("a", "c") in refinement.accepted_edges

    def test_large_cluster_uses_greedy_fallback(self):
        members = [f"n{i}" for i in range(20)]
        quality = {(members[i], members[i + 1]): 0.5 for i in range(19)}
        refinement = refine_cluster(members, quality, max_ilp_nodes=5)
        assert len(refinement.accepted_edges) == 19


class TestDistributionBasedMatcher:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistributionBasedMatcher(phase1_threshold=1.5)
        with pytest.raises(ValueError):
            DistributionBasedMatcher(num_buckets=0)

    def test_overlapping_numeric_columns_matched(self):
        source = Table(
            "s",
            [
                Column("salary", list(range(1000, 1100))),
                Column("age", list(range(20, 70)) * 2),
            ],
        )
        target = Table(
            "t",
            [
                Column("wage", list(range(1000, 1100))),
                Column("years", list(range(20, 70)) * 2),
            ],
        )
        result = DistributionBasedMatcher(phase1_threshold=0.2, phase2_threshold=0.2).get_matches(
            source, target
        )
        truth = [("salary", "wage"), ("age", "years")]
        assert recall_at_ground_truth(result.ranked_pairs(), truth) == 1.0

    def test_disjoint_distributions_rank_low(self):
        source = Table("s", {"low": list(range(100))})
        target = Table("t", {"low_copy": list(range(100)), "high": list(range(10000, 10100))})
        result = DistributionBasedMatcher().get_matches(source, target)
        scores = result.scores()
        assert scores[("low", "low_copy")] > scores[("low", "high")]

    def test_complete_ranking(self, clients_table, offices_table):
        result = DistributionBasedMatcher().get_matches(clients_table, offices_table)
        assert len(result) == clients_table.num_columns * offices_table.num_columns

    def test_string_columns_supported(self):
        source = Table("s", {"city": ["delft", "leiden", "gouda", "utrecht"] * 5})
        target = Table("t", {"town": ["delft", "leiden", "gouda", "utrecht"] * 5})
        result = DistributionBasedMatcher(phase1_threshold=0.3, phase2_threshold=0.3).get_matches(
            source, target
        )
        assert result.ranked_pairs()[0] == ("city", "town")

    def test_schema_names_are_irrelevant(self):
        """Pure instance method: renaming columns must not change the ranking."""
        source = Table("s", {"a": list(range(50)), "b": [str(i) + "x" for i in range(50)]})
        target = Table("t", {"c": list(range(50)), "d": [str(i) + "x" for i in range(50)]})
        renamed_target = target.rename_columns({"c": "zzz", "d": "qqq"})
        matcher = DistributionBasedMatcher()
        first = [
            (s, {"zzz": "c", "qqq": "d"}.get(t, t))
            for s, t in matcher.get_matches(source, renamed_target).ranked_pairs()
        ]
        second = matcher.get_matches(source, target).ranked_pairs()
        assert first == second
