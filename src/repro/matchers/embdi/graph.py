"""EmbDI's tripartite data graph.

EmbDI (Cappuzzo, Papotti, Thirumuruganathan — SIGMOD 2020) represents the two
relations as a heterogeneous graph with three kinds of nodes:

* **RID nodes** — one per row (record identifier);
* **CID nodes** — one per column (attribute identifier);
* **value nodes** — one per distinct cell value.

Edges connect every value node to the RID of the row it appears in and to the
CID of the column it belongs to.  Random walks over this graph produce the
"sentences" used to train local embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.data.table import Table
from repro.data.types import is_missing

__all__ = ["DataGraph", "build_data_graph", "graph_from_tokens", "value_tokens"]

RID_PREFIX = "idx__"
CID_PREFIX = "cid__"
VALUE_PREFIX = "tt__"


@dataclass
class DataGraph:
    """Adjacency-list representation of the tripartite EmbDI graph.

    Attributes
    ----------
    adjacency:
        ``{node token: [neighbour tokens]}``; neighbours may repeat, which
        makes frequent co-occurrences proportionally more likely targets of a
        uniform random step (mirroring edge weights).
    rid_nodes / cid_nodes / value_nodes:
        The node tokens of each kind.
    """

    adjacency: dict[str, list[str]] = field(default_factory=dict)
    rid_nodes: list[str] = field(default_factory=list)
    cid_nodes: list[str] = field(default_factory=list)
    value_nodes: list[str] = field(default_factory=list)

    def add_edge(self, node_a: str, node_b: str) -> None:
        """Add an undirected edge between two node tokens."""
        self.adjacency.setdefault(node_a, []).append(node_b)
        self.adjacency.setdefault(node_b, []).append(node_a)

    def neighbours(self, node: str) -> list[str]:
        """Neighbour tokens of *node* (empty when isolated/unknown)."""
        return self.adjacency.get(node, [])

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self.adjacency.values()) // 2

    def all_nodes(self) -> list[str]:
        """All node tokens (RID + CID + value)."""
        return list(self.adjacency)


def _value_token(value: object) -> str:
    return VALUE_PREFIX + str(value).strip().lower().replace(" ", "_")


def cid_token(table_name: str, column_name: str) -> str:
    """The CID node token of a column (used by the matcher for lookups)."""
    return f"{CID_PREFIX}{table_name}__{column_name}"


def value_tokens(table: Table, max_rows: int | None = None) -> list[list[Optional[str]]]:
    """Per column, the value-node token of each of the first *max_rows* rows.

    ``None`` marks a missing cell (it gets no node).  All of a table the
    graph reads, so EmbDI prepares a table into exactly this.
    """
    row_limit = table.num_rows if max_rows is None else min(table.num_rows, max_rows)
    return [
        [None if is_missing(value) else _value_token(value) for value in column.values[:row_limit]]
        for column in table.columns
    ]


def graph_from_tokens(
    tables: Iterable[tuple[str, Sequence[str], Sequence[Sequence[Optional[str]]]]],
) -> DataGraph:
    """The joint graph of ``(table name, column names, value_tokens)`` triples."""
    graph = DataGraph()
    for table_name, column_names, columns in tables:
        column_tokens = [cid_token(table_name, name) for name in column_names]
        for column_token in column_tokens:
            if column_token not in graph.adjacency:
                graph.adjacency.setdefault(column_token, [])
                graph.cid_nodes.append(column_token)
        for row_index in range(len(columns[0]) if columns else 0):
            rid_token = f"{RID_PREFIX}{table_name}__{row_index}"
            graph.adjacency.setdefault(rid_token, [])
            graph.rid_nodes.append(rid_token)
            for column_token, tokens in zip(column_tokens, columns):
                value_token = tokens[row_index]
                if value_token is None:
                    continue
                if value_token not in graph.adjacency:
                    graph.value_nodes.append(value_token)
                graph.add_edge(rid_token, value_token)
                graph.add_edge(column_token, value_token)
    return graph


def build_data_graph(
    tables: Iterable[Table],
    max_rows_per_table: int | None = None,
) -> DataGraph:
    """Build the joint tripartite graph of one or more tables.

    EmbDI trains a single embedding space over *both* input relations so that
    shared values tie the two schemas together; hence the graph is built over
    the union of the tables.

    Parameters
    ----------
    tables:
        The input relations.
    max_rows_per_table:
        Optional row cap per table (keeps the benchmark-scale runs tractable).
    """
    return graph_from_tokens(
        (table.name, table.column_names, value_tokens(table, max_rows_per_table))
        for table in tables
    )
