"""The EmbDI matcher (Cappuzzo, Papotti, Thirumuruganathan — SIGMOD 2020).

EmbDI builds *local* relational embeddings: the two relations are merged into
a tripartite graph (rows, columns, values), random walks over the graph form
sentences, and a word2vec skip-gram model is trained on those sentences so
that every row, column and value token receives an embedding.  For schema
matching, the columns of the two tables are compared by the cosine
similarity of their CID-token embeddings.

As the paper observes, the method depends on overlapping instance values to
tie the two relations together (shared value nodes are the only bridges
between the tables in the graph) and on the randomness of walk generation —
both properties are preserved here and explain the inconsistent effectiveness
reported in Figure 6.
"""

from __future__ import annotations

from repro.data.table import Table
from repro.embeddings.word2vec import Word2VecConfig, train_word2vec
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.embdi.graph import cid_token, graph_from_tokens, value_tokens
from repro.matchers.embdi.walks import WalkConfig, generate_walks
from repro.matchers.registry import register_matcher

__all__ = ["EmbDIMatcher"]


@register_matcher
class EmbDIMatcher(BaseMatcher):
    """EmbDI: locally trained relational embeddings for schema matching.

    Parameters
    ----------
    dimensions:
        Embedding dimensionality (Table II: 300; default scaled down for
        laptop-scale runs — the experiment suite can override it).
    sentence_length:
        Tokens per random walk (Table II: 60).
    window_size:
        Skip-gram window (Table II: 3).
    walks_per_node:
        Walks started from every graph node.
    epochs:
        Word2vec training epochs.
    max_rows:
        Row cap per table when building the data graph.
    seed:
        Seed controlling walk generation and embedding initialisation.
    """

    name = "EmbDI"
    code = "EDI"
    match_types = (MatchType.VALUE_OVERLAP, MatchType.EMBEDDINGS)
    uses_instances = True
    uses_schema = True

    def __init__(
        self,
        dimensions: int = 64,
        sentence_length: int = 20,
        window_size: int = 3,
        walks_per_node: int = 3,
        epochs: int = 1,
        max_rows: int = 200,
        seed: int = 42,
    ) -> None:
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self.sentence_length = sentence_length
        self.window_size = window_size
        self.walks_per_node = walks_per_node
        self.epochs = epochs
        self.max_rows = max_rows
        self.seed = seed

    def prepare(self, table: Table) -> PreparedTable:
        """Render the cells the data graph reads as value tokens, once.

        Only the first ``max_rows`` rows enter the graph, so only they are
        kept: a prepared (or stored) EmbDI table needs no cells.
        """
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"tokens": value_tokens(table, self.max_rows)},
        )

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Train local embeddings over both tables and compare CID embeddings.

        EmbDI is the one method whose expensive work is genuinely *pairwise*:
        the tripartite graph, the walks and the word2vec model are trained
        jointly over both relations (shared value nodes are the only bridges
        between them), so only the value tokens are prepared and the whole
        pipeline runs here.
        """
        prepared = self._ensure_prepared(source), self._ensure_prepared(target)
        graph = graph_from_tokens(
            (side.name, side.header.column_names, side.payload["tokens"]) for side in prepared
        )
        source, target = (side.header for side in prepared)
        walk_config = WalkConfig(
            sentence_length=self.sentence_length,
            walks_per_node=self.walks_per_node,
            seed=self.seed,
        )
        sentences = generate_walks(graph, walk_config)
        model = train_word2vec(
            sentences,
            Word2VecConfig(
                dimensions=self.dimensions,
                window_size=self.window_size,
                epochs=self.epochs,
                seed=self.seed,
            ),
        )

        scores = {}
        for source_name in source.column_names:
            source_token = cid_token(source.name, source_name)
            for target_name in target.column_names:
                target_token = cid_token(target.name, target_name)
                similarity = model.similarity(source_token, target_token)
                # Cosine similarity lives in [-1, 1]; shift to [0, 1] so the
                # ranking scores compose with the rest of the suite.
                scores[(source_name, target_name)] = (similarity + 1.0) / 2.0
        return MatchResult.from_column_scores(source, target, scores)
