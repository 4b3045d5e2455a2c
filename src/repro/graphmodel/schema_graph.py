"""Directed labelled graphs describing relational schemata.

Similarity Flooding operates on directed graphs with labelled edges derived
from the two input schemata.  For tabular data the paper-standard encoding
(following Melnik et al.'s relational example) represents each table, column,
column name, data type and the relationships between them as nodes/edges:

* ``Table --name--> NameLiteral``
* ``Table --column--> Column``
* ``Column --name--> NameLiteral``
* ``Column --type--> TypeLiteral``

The module builds these graphs with ``networkx`` and exposes the node kinds
so matchers can filter the correspondences they care about (column ↔ column).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import networkx as nx

from repro.data.table import Table

__all__ = ["NodeKind", "SchemaNode", "build_schema_graph", "pairwise_connectivity_graph"]


class NodeKind(str, Enum):
    """The role a node plays in a schema graph."""

    TABLE = "table"
    COLUMN = "column"
    NAME = "name"
    TYPE = "type"


@dataclass(frozen=True, order=True)
class SchemaNode:
    """A node of a schema graph.

    ``identifier`` disambiguates nodes of the same kind (e.g. two columns);
    literal nodes (names, types) share identity when their text is equal,
    which is what lets Similarity Flooding propagate similarity through
    shared labels.
    """

    kind: NodeKind
    identifier: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}:{self.identifier}"


def build_schema_graph(table: Table) -> nx.DiGraph:
    """Build the directed labelled schema graph of *table*."""
    graph = nx.DiGraph(table_name=table.name)
    table_node = SchemaNode(NodeKind.TABLE, table.name)
    table_name_node = SchemaNode(NodeKind.NAME, table.name.lower())
    graph.add_node(table_node)
    graph.add_node(table_name_node)
    graph.add_edge(table_node, table_name_node, label="name")
    for column in table.columns:
        column_node = SchemaNode(NodeKind.COLUMN, f"{table.name}.{column.name}")
        name_node = SchemaNode(NodeKind.NAME, column.name.lower())
        type_node = SchemaNode(NodeKind.TYPE, column.data_type.value)
        graph.add_node(column_node)
        graph.add_node(name_node)
        graph.add_node(type_node)
        graph.add_edge(table_node, column_node, label="column")
        graph.add_edge(column_node, name_node, label="name")
        graph.add_edge(column_node, type_node, label="type")
    return graph


def pairwise_connectivity_graph(
    graph_a: nx.DiGraph, graph_b: nx.DiGraph
) -> nx.DiGraph:
    """Build the pairwise connectivity graph (PCG) of two schema graphs.

    Nodes are pairs ``(a, b)`` with ``a`` from *graph_a* and ``b`` from
    *graph_b``; there is an edge ``(a1, b1) --label--> (a2, b2)`` whenever both
    input graphs have an edge with that label between the respective nodes.
    Only node pairs that participate in at least one such shared-label edge
    appear in the PCG, as in the original algorithm.
    """
    pcg = nx.DiGraph()
    edges_by_label_b: dict[str, list[tuple]] = {}
    for source_b, target_b, data in graph_b.edges(data=True):
        edges_by_label_b.setdefault(data.get("label", ""), []).append((source_b, target_b))

    for source_a, target_a, data in graph_a.edges(data=True):
        label = data.get("label", "")
        for source_b, target_b in edges_by_label_b.get(label, ()):
            pair_source = (source_a, source_b)
            pair_target = (target_a, target_b)
            pcg.add_edge(pair_source, pair_target, label=label)
    return pcg
