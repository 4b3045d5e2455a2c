"""The SemProp matcher (Fernandez et al., ICDE 2018).

SemProp is a hybrid method combining a *semantic* matcher and a *syntactic*
one.  The semantic matcher links attribute/table names to ontology classes
using pre-trained word embeddings and relates columns transitively through
those links; column pairs that cannot be related semantically are forwarded
to a syntactic matcher, which here (as in the Aurum code base the paper used)
estimates value-set overlap with MinHash sketches.

Parameters follow Table II: ``minhash_threshold`` (syntactic acceptance),
``semantic_threshold`` (strength required for an ontology link) and
``coherent_threshold`` (coherence required between two columns' link sets).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.data.table import Table
from repro.embeddings.pretrained import PretrainedEmbeddings, default_pretrained_embeddings
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.registry import register_matcher
from repro.matchers.semprop.semantic import SemanticLink, coherence_score, link_to_ontology
from repro.ontology.domain import business_ontology
from repro.ontology.model import Ontology
from repro.sketches.minhash import jaccard_matrix, minhash_signatures, signature_matrix
from repro.telemetry import recorder as telemetry

__all__ = ["SemPropMatcher"]


@register_matcher
class SemPropMatcher(BaseMatcher):
    """SemProp: ontology-anchored semantic matching with a syntactic fallback.

    Parameters
    ----------
    minhash_threshold:
        Estimated-Jaccard threshold of the syntactic fallback (Table II grid
        0.2–0.3).
    semantic_threshold:
        Embedding similarity required to link a name to an ontology class
        (Table II grid 0.4–0.6).
    coherent_threshold:
        Coherence required between the two columns' link sets for a semantic
        match (Table II grid 0.2–0.4).
    ontology:
        Domain ontology; defaults to the bundled business ontology.
    num_permutations:
        MinHash signature size of the syntactic matcher.
    sample_size:
        Values per column used when sketching.
    """

    name = "SemProp"
    code = "SP"
    match_types = (MatchType.SEMANTIC_OVERLAP, MatchType.VALUE_OVERLAP, MatchType.EMBEDDINGS)
    uses_instances = True
    uses_schema = True

    def __init__(
        self,
        minhash_threshold: float = 0.25,
        semantic_threshold: float = 0.5,
        coherent_threshold: float = 0.3,
        ontology: Ontology | None = None,
        embeddings: PretrainedEmbeddings | None = None,
        num_permutations: int = 128,
        sample_size: int = 1000,
    ) -> None:
        for label, value in (
            ("minhash_threshold", minhash_threshold),
            ("semantic_threshold", semantic_threshold),
            ("coherent_threshold", coherent_threshold),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        self.minhash_threshold = minhash_threshold
        self.semantic_threshold = semantic_threshold
        self.coherent_threshold = coherent_threshold
        self.num_permutations = num_permutations
        self.sample_size = sample_size
        self._ontology = ontology or business_ontology()
        self._embeddings = embeddings or default_pretrained_embeddings()
        self._link_table: dict[tuple[str, float, str], list[SemanticLink]] = {}

    #: Upper bound on the name -> links table, emptied when reached.  The
    #: 72-table lakebench gate lakes hold 96 (``families``) and 5
    #: (``overlap``) distinct column names.
    _LINK_TABLE_LIMIT = 1 << 14

    def __getstate__(self) -> dict:
        """Drop the name -> links table when pickling (rebuilt on demand)."""
        state = self.__dict__.copy()
        state["_link_table"] = {}
        return state

    def _link_columns(self, table: Table) -> dict[str, list[SemanticLink]]:
        """Ontology links per column, each distinct name linked once.

        The table is keyed with everything a link depends on that can change
        under a live matcher (the threshold attribute, the mutable ontology;
        the embedder is fixed at construction).
        """
        ontology = self._ontology.fingerprint()
        links: dict[str, list[SemanticLink]] = {}
        misses = 0
        for name in table.column_names:
            key = (name, self.semantic_threshold, ontology)
            found = self._link_table.get(key)
            if found is None:
                misses += 1
                found = link_to_ontology(
                    name,
                    self._ontology,
                    embeddings=self._embeddings,
                    threshold=self.semantic_threshold,
                )
                if len(self._link_table) >= self._LINK_TABLE_LIMIT:
                    self._link_table.clear()
                self._link_table[key] = found
            links[name] = found
        telemetry.count("semprop.links.hits", len(links) - misses)
        telemetry.count("semprop.links.misses", misses)
        return links

    def _fingerprint_extras(self) -> tuple[object, ...]:
        """The ontology and embedding model shape every prepared link."""
        return (self._ontology.fingerprint(), self._embeddings.fingerprint())

    def prepare_parameters(self) -> dict[str, object]:
        """Prepared links/sketches ignore the match-stage thresholds.

        ``minhash_threshold`` and ``coherent_threshold`` are applied per
        pair in :meth:`match_prepared`; ``semantic_threshold``,
        ``num_permutations`` and ``sample_size`` are baked into the payload
        and stay in the fingerprint.
        """
        return {
            key: value
            for key, value in self.parameters().items()
            if key not in ("minhash_threshold", "coherent_threshold")
        }

    def prepare(self, table: Table) -> PreparedTable:
        """Link column names to the ontology and sketch value sets once.

        Both artifacts depend only on one table (plus the matcher's ontology,
        embeddings and thresholds), so discovery amortises the expensive
        embedding lookups and MinHash hashing over every candidate the
        prepared query meets.  The links depend on the column *name* alone,
        so a matcher instance links each distinct name once however many
        tables carry it (see :meth:`_link_columns`).

        The signatures are one ``uint32`` matrix, a row per column in column
        order (every MinHash value fits 32 bits), plus the value-set sizes:
        the arrays :func:`~repro.sketches.minhash.jaccard_matrix` compares.
        """
        links = self._link_columns(table)
        signatures = minhash_signatures(
            [column.as_strings()[: self.sample_size] for column in table.columns],
            num_permutations=self.num_permutations,
        )
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={
                "links": links,
                "signatures": signature_matrix(signatures).astype(np.uint32),
                "set_sizes": np.array(
                    [signature.set_size for signature in signatures], dtype=np.int64
                ),
            },
        )

    def bounds_admissible(self) -> bool:
        """SemProp's cascade bound is sound (it returns ``+inf`` otherwise).

        When :meth:`score_bound` returns a finite value, every pair fell to
        the syntactic branch (no query column carries ontology links, so
        ``coherence_score`` is 0 for every pair and stays below the positive
        ``coherent_threshold``), and the branch scores at most
        ``0.5 * estimated_jaccard``.  Under the conditions the bound checks
        — same signature width and seed as the store sketches, no value
        sampling truncation on either side — the matcher's MinHash estimate
        *is* the store-sketch estimate (both hash the identical normalised
        distinct value set through the identical permutation family), so
        ``0.5 * signals.max_jaccard`` dominates every pair score exactly.
        """
        return True

    def score_bound(self, prepared_query: PreparedTable, signals) -> float:
        """Upper-bound pair scores with the store-sketch Jaccard, when sound.

        Sound only when the semantic branch is provably closed and the
        syntactic estimates coincide with the store sketches; any violated
        assumption returns ``+inf`` (score exactly).
        """
        if self.coherent_threshold <= 0.0:
            # A zero threshold lets linkless pairs take the semantic branch
            # (score >= 0.5) — nothing cheap bounds that.
            return math.inf
        links = prepared_query.payload.get("links") or {}
        if any(links.values()):
            # Semantic matches score 0.5 + 0.5 * coherence; the sketch
            # signals carry no ontology evidence to bound coherence with.
            return math.inf
        if signals.num_permutations != self.num_permutations or signals.seed != 7:
            # minhash_signature() hashes with the default seed-7 family; a
            # store sketched differently estimates a different Jaccard.
            return math.inf
        if (
            prepared_query.header.num_rows > self.sample_size
            or signals.max_values > self.sample_size
        ):
            # Sampling would truncate a value set on one side, so the two
            # estimators no longer hash the same sets.
            return math.inf
        return 0.5 * min(1.0, signals.max_jaccard)

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Combine semantic (ontology-linked) and syntactic (MinHash) evidence.

        The syntactic score of every column pair is one array expression
        over the all-pairs MinHash estimate; only pairs whose columns both
        carry ontology links can cohere, so only those are visited one by
        one to see whether the semantic branch overrides it.  Every score is
        the IEEE double the per-pair loop computed.
        """
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        source_links = source.payload["links"]
        target_links = target.payload["links"]
        source_names = source.header.column_names
        target_names = target.header.column_names

        # Each cell equals the corresponding signature.jaccard() exactly.
        estimated = jaccard_matrix(source.payload["signatures"], target.payload["signatures"])
        grid = np.where(estimated >= self.minhash_threshold, 0.5 * estimated, 0.25 * estimated)

        # Coherence is 0.0 unless both columns carry links, which only a zero
        # threshold accepts: only then are linkless columns visited as well.
        everyone = self.coherent_threshold <= 0.0
        linked_sources = [i for i, name in enumerate(source_names) if everyone or source_links[name]]
        linked_targets = [j for j, name in enumerate(target_names) if everyone or target_links[name]]
        for i in linked_sources:
            links = source_links[source_names[i]]
            for j in linked_targets:
                semantic = coherence_score(links, target_links[target_names[j]], self._ontology)
                if semantic >= self.coherent_threshold:
                    # Semantic matches rank above purely syntactic ones.
                    grid[i, j] = 0.5 + 0.5 * semantic

        pairs = itertools.product(source_names, target_names)
        return MatchResult.from_column_scores(
            source.header, target.header, dict(zip(pairs, grid.ravel().tolist()))
        )
