"""MinHash LSH banding index over column sketches.

Classic banding scheme (used by LSH Ensemble and Aurum's value-overlap
graph): a signature of ``bands x rows`` hashes is split into ``bands``
fragments; two columns land in the same bucket of band *i* when their
*i*-th fragments are identical.  A pair with Jaccard similarity *s* collides
in at least one band with probability ``1 - (1 - s^rows)^bands`` — an
S-curve that passes near-certainly above the similarity threshold and
near-never below it, which is what makes candidate generation sublinear in
lake size.

Bucket collisions are then refined with cheap sketch-level checks (full
signature Jaccard, data-type compatibility, hash-space histogram distance)
before any expensive matcher sees the pair.

The index is also the process's one decoded copy of the lake's sketches: it
keeps every table's sketch whole (:meth:`LakeIndex.sketch`), which is what
the rerank cascade prices a shortlist from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.data.table import Table
from repro.lake.profiles import ColumnSketch, SketchConfig, TableSketch, sketch_table
from repro.telemetry import recorder as telemetry

__all__ = ["LSHParams", "CandidateTable", "LakeIndex"]


@dataclass(frozen=True)
class LSHParams:
    """Tunable banding parameters plus candidate refinement thresholds.

    Attributes
    ----------
    bands / rows:
        Banding shape; ``bands * rows`` must not exceed the signature length.
        More bands (fewer rows) lowers the similarity threshold of the
        S-curve — higher recall, more candidates.
    min_jaccard:
        Colliding column pairs below this estimated Jaccard are discarded.
    min_type_compatibility:
        Pre-filter: colliding pairs whose data types score below this are
        discarded (e.g. integer vs date) before the Jaccard estimate.
    max_histogram_distance:
        Pre-filter: pairs whose fixed-domain histograms differ by more than
        this L1 distance (max 2.0) are discarded.  The default is permissive
        on purpose — the filter exists to drop egregious mismatches, not to
        second-guess the matcher.
    name_match_score:
        Candidate score granted to columns whose *normalised names* are
        identical, independent of value overlap.  This is the schema-evidence
        channel: without it, a perfectly unionable table whose values are
        disjoint from the query (e.g. another time partition of the same
        schema) could never enter the shortlist.  Set 0 to disable.
    """

    bands: int = 32
    rows: int = 4
    min_jaccard: float = 0.05
    min_type_compatibility: float = 0.3
    max_histogram_distance: float = 1.95
    name_match_score: float = 0.5

    def validate(self, num_permutations: int) -> None:
        if self.bands <= 0 or self.rows <= 0:
            raise ValueError("bands and rows must be positive")
        if self.bands * self.rows > num_permutations:
            raise ValueError(
                f"bands * rows = {self.bands * self.rows} exceeds the "
                f"signature length {num_permutations}"
            )


@dataclass(frozen=True)
class CandidateTable:
    """One table surfaced by the index for a query, with its pruning score."""

    table_name: str
    score: float
    column_pairs: tuple[tuple[str, str, float], ...] = ()

    @property
    def best_pair(self) -> Optional[tuple[str, str, float]]:
        return self.column_pairs[0] if self.column_pairs else None


class LakeIndex:
    """In-memory LSH banding index over the column sketches of a lake.

    The index is cheap to (re)build from a :class:`SketchStore` — buckets are
    plain dict lookups over already-persisted signatures — and supports
    incremental :meth:`add` / :meth:`remove` mirroring store mutations.
    """

    def __init__(
        self,
        config: SketchConfig = SketchConfig(),
        params: LSHParams = LSHParams(),
    ) -> None:
        params.validate(config.num_permutations)
        self.config = config
        self.params = params
        self._buckets: dict[tuple[int, tuple[int, ...]], set[tuple[str, str]]] = {}
        self._columns: dict[tuple[str, str], ColumnSketch] = {}
        # table name -> its whole sketch; makes removal O(columns of table).
        self._tables: dict[str, TableSketch] = {}
        # normalised column name -> keys; the schema-evidence channel.
        self._name_buckets: dict[str, set[tuple[str, str]]] = {}

    @classmethod
    def from_store(cls, store, params: LSHParams = LSHParams()) -> "LakeIndex":
        """Build an index over every sketch currently in *store*."""
        index = cls(config=store.config, params=params)
        for sketch in store:
            index.add(sketch)
        return index

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> set[str]:
        """Names of the tables currently indexed."""
        return set(self._tables)

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def _band_keys(self, sketch: ColumnSketch) -> Iterable[tuple[int, tuple[int, ...]]]:
        values = sketch.minhash.values
        rows = self.params.rows
        for band in range(self.params.bands):
            yield (band, values[band * rows : (band + 1) * rows])

    @staticmethod
    def _name_key(column_name: str) -> str:
        return column_name.strip().lower()

    def add(self, table_sketch: TableSketch) -> None:
        """Insert (or replace) a table's column sketches into the buckets."""
        if table_sketch.name in self._tables:
            self.remove(table_sketch.name)
        self._tables[table_sketch.name] = table_sketch
        for column in table_sketch.columns:
            if column.minhash.set_size == 0:
                continue  # empty columns collide with everything trivially
            self._columns[column.key] = column
            for key in self._band_keys(column):
                self._buckets.setdefault(key, set()).add(column.key)
            self._name_buckets.setdefault(
                self._name_key(column.column_name), set()
            ).add(column.key)

    def remove(self, table_name: str) -> None:
        """Drop every column of *table_name* from the buckets."""
        doomed = self._tables.pop(table_name, None)
        if doomed is None:
            return
        for column in doomed.columns:
            column_key = column.key
            if self._columns.pop(column_key, None) is None:
                continue  # an empty column: never bucketed
            for bucket_key in self._band_keys(column):
                bucket = self._buckets.get(bucket_key)
                if bucket is not None:
                    bucket.discard(column_key)
                    if not bucket:
                        del self._buckets[bucket_key]
            name_key = self._name_key(column.column_name)
            names = self._name_buckets.get(name_key)
            if names is not None:
                names.discard(column_key)
                if not names:
                    del self._name_buckets[name_key]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def sketch(self, table_name: str) -> TableSketch:
        """The sketch *table_name* was indexed from (``KeyError`` if none):
        every column, the empty ones the buckets skip too, under the
        ``content_hash`` that says which content it describes."""
        return self._tables[table_name]

    def candidate_columns(
        self, query: ColumnSketch, exclude_table: Optional[str] = None
    ) -> list[tuple[ColumnSketch, float]]:
        """Columns sharing ≥1 LSH band or a normalised name, refined and scored.

        Value evidence scores by estimated Jaccard; name-equal columns score
        at least ``params.name_match_score`` regardless of value overlap (so
        disjoint partitions of one schema stay discoverable).  Results are
        sorted by descending score, ties broken by column key.
        """
        seen: set[tuple[str, str]] = set()
        for bucket_key in self._band_keys(query):
            seen.update(self._buckets.get(bucket_key, ()))
        params = self.params
        name_matches: set[tuple[str, str]] = set()
        if params.name_match_score > 0:
            name_matches = self._name_buckets.get(
                self._name_key(query.column_name), set()
            )
            seen |= name_matches
        scored: list[tuple[ColumnSketch, float]] = []
        # Pre-filter rejections are tallied locally and emitted as one batch
        # of counters per call — the loop body stays telemetry-free.
        type_rejected = histogram_rejected = jaccard_rejected = 0
        for column_key in seen:
            if column_key == query.key or column_key[0] == exclude_table:
                continue
            candidate = self._columns[column_key]
            if query.type_compatibility(candidate) < params.min_type_compatibility:
                type_rejected += 1
                continue
            name_match = column_key in name_matches
            if (
                not name_match
                and query.histogram_distance(candidate) > params.max_histogram_distance
            ):
                histogram_rejected += 1
                continue
            similarity = query.jaccard(candidate)
            if name_match:
                similarity = max(similarity, params.name_match_score)
            if similarity < params.min_jaccard:
                jaccard_rejected += 1
                continue
            scored.append((candidate, similarity))
        scored.sort(key=lambda item: (-item[1], item[0].key))
        telemetry.count("lsh.bands_probed", params.bands)
        telemetry.count("lsh.bucket_candidates", len(seen))
        if type_rejected:
            telemetry.count("lsh.type_rejected", type_rejected)
        if histogram_rejected:
            telemetry.count("lsh.histogram_rejected", histogram_rejected)
        if jaccard_rejected:
            telemetry.count("lsh.jaccard_rejected", jaccard_rejected)
        telemetry.count("lsh.columns_accepted", len(scored))
        return scored

    def candidate_tables(
        self,
        query: TableSketch,
        top_k: Optional[int] = None,
        exclude_self: bool = True,
    ) -> list[CandidateTable]:
        """Rank lake tables by sketch-level evidence against *query*.

        Each query column votes for the best-matching column per candidate
        table; a table's score is the mean of those votes over the query's
        columns (so a table matching all query columns outranks one matching
        a single column equally well).
        """
        exclude = query.name if exclude_self else None
        per_table: dict[str, dict[str, tuple[str, float]]] = {}
        for query_column in query.columns:
            for candidate, similarity in self.candidate_columns(
                query_column, exclude_table=exclude
            ):
                best = per_table.setdefault(candidate.table_name, {})
                current = best.get(query_column.column_name)
                if current is None or similarity > current[1]:
                    best[query_column.column_name] = (candidate.column_name, similarity)
        num_query_columns = max(1, query.num_columns)
        candidates = []
        for table_name, votes in per_table.items():
            pairs = tuple(
                sorted(
                    (
                        (query_column, target_column, similarity)
                        for query_column, (target_column, similarity) in votes.items()
                    ),
                    key=lambda pair: (-pair[2], pair[0], pair[1]),
                )
            )
            score = sum(similarity for _, _, similarity in pairs) / num_query_columns
            candidates.append(
                CandidateTable(table_name=table_name, score=score, column_pairs=pairs)
            )
        candidates.sort(key=lambda c: (-c.score, c.table_name))
        return candidates[:top_k] if top_k is not None else candidates

    def shortlist(self, query: Table, limit: Optional[int] = None) -> list[str]:
        """Candidate table names for a raw query table (sketched on the fly).

        This is the duck-typed hook :meth:`DiscoveryEngine.discover
        <repro.discovery.search.DiscoveryEngine.discover>` calls for its
        ``index=`` fast path.
        """
        # Transient query sketch: identity is never consulted, skip the
        # O(cells) content hash.
        sketch = sketch_table(query, self.config, content_hash="")
        return [c.table_name for c in self.candidate_tables(sketch, top_k=limit)]
