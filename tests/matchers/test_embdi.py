"""Tests for the EmbDI matcher (graph, walks, matching)."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.matchers.embdi.graph import DataGraph, cid_token, graph_from_tokens, value_tokens
from repro.matchers.embdi.matcher import EmbDIMatcher
from repro.matchers.embdi.walks import WalkConfig, generate_walks
from repro.metrics.ranking import recall_at_ground_truth


def build_data_graph(tables, max_rows_per_table=None) -> DataGraph:
    """The joint graph of *tables*, built from their value tokens as the matcher does."""
    return graph_from_tokens(
        (table.name, table.column_names, value_tokens(table, max_rows_per_table))
        for table in tables
    )


@pytest.fixture
def tiny_tables() -> tuple[Table, Table]:
    source = Table(
        "s",
        {
            "city": ["delft", "leiden", "gouda", "utrecht"] * 3,
            "number": ["10", "20", "30", "40"] * 3,
        },
    )
    target = Table(
        "t",
        {
            "town": ["delft", "leiden", "gouda", "utrecht"] * 3,
            "figure": ["10", "20", "30", "40"] * 3,
        },
    )
    return source, target


class TestDataGraph:
    def test_node_kinds_created(self, tiny_tables):
        source, target = tiny_tables
        graph = build_data_graph([source, target])
        assert len(graph.cid_nodes) == 4
        assert len(graph.rid_nodes) == source.num_rows + target.num_rows

    def test_shared_values_bridge_tables(self, tiny_tables):
        source, target = tiny_tables
        graph = build_data_graph([source, target])
        # the value 'delft' must connect CIDs of both tables
        value_neighbours = set(graph.neighbours("tt__delft"))
        assert cid_token("s", "city") in value_neighbours
        assert cid_token("t", "town") in value_neighbours

    def test_row_cap(self, tiny_tables):
        source, target = tiny_tables
        graph = build_data_graph([source, target], max_rows_per_table=2)
        assert len(graph.rid_nodes) == 4

    def test_missing_values_skipped(self):
        table = Table("m", {"a": [None, "x"]})
        graph = build_data_graph([table])
        assert "tt__x" in graph.adjacency
        assert all(not node.startswith("tt__none") for node in graph.value_nodes)

    def test_edge_count_positive(self, tiny_tables):
        graph = build_data_graph(list(tiny_tables))
        assert any(graph.adjacency.values())


class TestWalks:
    def test_walk_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(sentence_length=1)
        with pytest.raises(ValueError):
            WalkConfig(walks_per_node=0)

    def test_walk_count_and_length(self, tiny_tables):
        graph = build_data_graph(list(tiny_tables))
        config = WalkConfig(sentence_length=8, walks_per_node=2, seed=1)
        walks = generate_walks(graph, config)
        assert len(walks) == 2 * len(graph.all_nodes())
        assert all(len(walk) == 8 for walk in walks)

    def test_walks_deterministic(self, tiny_tables):
        graph = build_data_graph(list(tiny_tables))
        config = WalkConfig(sentence_length=6, walks_per_node=1, seed=5)
        assert generate_walks(graph, config) == generate_walks(graph, config)

    def test_walks_follow_edges(self, tiny_tables):
        graph = build_data_graph(list(tiny_tables))
        walks = generate_walks(graph, WalkConfig(sentence_length=5, walks_per_node=1, seed=2))
        for walk in walks[:10]:
            for current, following in zip(walk, walk[1:]):
                assert following in graph.neighbours(current)

    def test_isolated_nodes_skipped(self):
        graph = DataGraph()
        graph.adjacency["lonely"] = []
        assert generate_walks(graph, WalkConfig(sentence_length=4, walks_per_node=1)) == []


class TestEmbDIMatcher:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EmbDIMatcher(dimensions=0)

    def test_value_overlap_drives_matching(self, tiny_tables):
        source, target = tiny_tables
        matcher = EmbDIMatcher(dimensions=24, sentence_length=10, walks_per_node=4, epochs=3, seed=7)
        result = matcher.get_matches(source, target)
        truth = [("city", "town"), ("number", "figure")]
        assert recall_at_ground_truth(result.ranked_pairs(), truth) >= 0.5

    def test_complete_ranking_with_bounded_scores(self, tiny_tables):
        source, target = tiny_tables
        matcher = EmbDIMatcher(dimensions=16, sentence_length=8, walks_per_node=2, epochs=1)
        result = matcher.get_matches(source, target)
        assert len(result) == 4
        assert all(0.0 <= match.score <= 1.0 for match in result)

    def test_deterministic_given_seed(self, tiny_tables):
        source, target = tiny_tables
        matcher = EmbDIMatcher(dimensions=16, sentence_length=8, walks_per_node=2, epochs=1, seed=11)
        first = matcher.get_matches(source, target).ranked_pairs()
        second = matcher.get_matches(source, target).ranked_pairs()
        assert first == second
