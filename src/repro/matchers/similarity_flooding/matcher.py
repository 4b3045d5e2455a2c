"""Similarity Flooding matcher (Melnik, Garcia-Molina, Rahm — ICDE 2002).

The schemata of the two tables are encoded as directed labelled graphs (see
:mod:`repro.graphmodel.schema_graph`), combined into a pairwise connectivity
graph and run through the similarity-propagation fixpoint.  Initial
similarities come from a string comparison of node labels; as the paper
notes, the original string-matching function is unspecified, so this
reproduction uses normalised Levenshtein similarity.

Configuration follows Table II of the paper: ``inverse_average`` propagation
coefficients and fixpoint formula "C".  The matcher extracts column↔column
map pairs from the fixpoint and ranks them by their final similarity.
"""

from __future__ import annotations

from repro.data.table import Table
from repro.graphmodel.propagation import PropagationConfig, similarity_flood
from repro.graphmodel.schema_graph import (
    NodeKind,
    SchemaNode,
    build_schema_graph,
    pairwise_connectivity_graph,
)
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.text.distance import normalized_levenshtein
from repro.text.tokenize import normalize_identifier

__all__ = ["SimilarityFloodingMatcher"]


def _node_label(node: SchemaNode) -> str:
    """Textual label of a schema-graph node used for initial similarity."""
    if node.kind in (NodeKind.NAME, NodeKind.TYPE):
        return node.identifier
    # Table / column nodes: use the unqualified name.
    return node.identifier.split(".")[-1]


class SimilarityFloodingMatcher(BaseMatcher):
    """Similarity Flooding: graph-based fixpoint propagation of similarities.

    Parameters
    ----------
    coefficient_policy:
        Propagation coefficient policy (``"inverse_average"`` per Table II).
    fixpoint_formula:
        Fixpoint variant (``"c"`` per Table II).
    max_iterations / residual_threshold:
        Fixpoint convergence controls.
    """

    name = "SimilarityFlooding"
    code = "SF"
    match_types = (MatchType.ATTRIBUTE_OVERLAP, MatchType.DATA_TYPE)
    uses_instances = False
    uses_schema = True

    def __init__(
        self,
        coefficient_policy: str = "inverse_average",
        fixpoint_formula: str = "c",
        max_iterations: int = 200,
        residual_threshold: float = 1e-3,
    ) -> None:
        self.coefficient_policy = coefficient_policy
        self.fixpoint_formula = fixpoint_formula
        self.max_iterations = max_iterations
        self.residual_threshold = residual_threshold
        # Validate eagerly so constructor errors are raised where the user is.
        self._config = PropagationConfig(
            coefficient_policy=coefficient_policy,
            fixpoint_formula=fixpoint_formula,
            max_iterations=max_iterations,
            residual_threshold=residual_threshold,
        )

    def prepare_parameters(self) -> dict[str, object]:
        """The schema graph depends on the table alone.

        Every constructor parameter steers the flooding fixpoint in
        :meth:`match_prepared`, so all configurations share prepared graphs.
        """
        return {}

    def prepare(self, table: Table) -> PreparedTable:
        """Build the table's directed labelled schema graph once."""
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"graph": build_schema_graph(table)},
        )

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Run the flooding fixpoint and rank column↔column map pairs."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        graph_source = source.payload["graph"]
        graph_target = target.payload["graph"]
        pcg = pairwise_connectivity_graph(graph_source, graph_target)

        initial = {}
        for node_pair in pcg.nodes():
            node_a, node_b = node_pair
            label_a = normalize_identifier(_node_label(node_a))
            label_b = normalize_identifier(_node_label(node_b))
            initial[node_pair] = normalized_levenshtein(label_a, label_b)

        final = similarity_flood(pcg, initial, config=self._config)

        scores = {}
        for (node_a, node_b), similarity in final.items():
            if node_a.kind is not NodeKind.COLUMN or node_b.kind is not NodeKind.COLUMN:
                continue
            column_a = node_a.identifier.split(".", 1)[1]
            column_b = node_b.identifier.split(".", 1)[1]
            scores[(column_a, column_b)] = similarity
        # Columns that never co-occur in the PCG get a zero score so the
        # ranking is complete (Valentine evaluates rankings, not thresholds).
        for source_name in source.header.column_names:
            for target_name in target.header.column_names:
                scores.setdefault((source_name, target_name), 0.0)
        return MatchResult.from_column_scores(source.header, target.header, scores)
