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
before any expensive matcher sees the pair, in one pass of array
expressions per query over a columnar copy of the indexed columns, rebuilt
once per index generation (after any :meth:`LakeIndex.add` / ``remove``).

The index is also the process's one decoded copy of the lake's sketches: it
keeps every table's sketch whole (:meth:`LakeIndex.sketch`), and the rerank
cascade prices a shortlist from its signature matrix
(:meth:`LakeIndex.signature_block`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.data.types import TYPE_COMPATIBILITY_MATRIX, TYPE_INDEX
from repro.lake.profiles import ColumnSketch, SketchConfig, TableSketch
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


#: The builtin ``sum`` of floats compensates (Neumaier) from Python 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _builtin_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of non-negative *terms*, each equal to the builtin ``sum`` of
    that row's floats, added left to right the way it adds them."""
    total = compensation = np.zeros(len(terms))
    for column in terms.T:
        step = total + column
        if _COMPENSATED_SUM:
            compensation = compensation + np.where(
                total >= column, (total - step) + column, (column - step) + total
            )
        total = step
    return total + compensation


@dataclass(frozen=True)
class _Columnar:
    """One index generation's columns as arrays: a row per column of every
    table, the empty ones too (pricing compares them), sorted by
    ``(table name, column name)`` so row and table numbers order keys and
    names the way ``str`` compares them.  ``rows`` maps the bucketed keys."""

    rows: dict[tuple[str, str], int]
    column_names: list[str]
    signatures: np.ndarray  # uint32, rows x permutations
    histograms: np.ndarray  # rows x the widest histogram, zero-padded
    histogram_sizes: np.ndarray
    types: np.ndarray  # TYPE_INDEX codes
    table_of: np.ndarray  # row -> table number
    tables: list[str]
    slots: dict[str, int]  # table name -> table number
    offsets: np.ndarray  # table number -> its first row, plus the end
    max_values: np.ndarray  # largest non-missing cell count per table

    @classmethod
    def build(cls, sketches: Iterable[TableSketch], width: int) -> "_Columnar":
        tables = sorted(sketches, key=lambda table: table.name)
        columns = [
            column
            for table in tables
            for column in sorted(table.columns, key=lambda column: column.column_name)
        ]
        sizes = [len(column.histogram) for column in columns]
        buckets = max(sizes, default=0)
        widths = [table.num_columns for table in tables]
        return cls(
            rows={c.key: row for row, c in enumerate(columns) if c.minhash.set_size},
            column_names=[column.column_name for column in columns],
            signatures=np.array(
                [column.minhash.values for column in columns], dtype=np.uint32
            ).reshape(len(columns), -1 if columns else width),
            histograms=np.array(
                [c.histogram + (0.0,) * (buckets - len(c.histogram)) for c in columns]
            ).reshape(len(columns), buckets),
            histogram_sizes=np.array(sizes, dtype=np.intp),
            types=np.array([TYPE_INDEX[c.data_type] for c in columns], dtype=np.intp),
            table_of=np.repeat(np.arange(len(tables)), widths),
            tables=[table.name for table in tables],
            slots={table.name: i for i, table in enumerate(tables)},
            offsets=np.cumsum([0] + widths),
            max_values=np.array(
                [max([0] + [c.row_count - c.missing_count for c in t.columns]) for t in tables]
            ),
        )


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
        # table name -> its whole sketch; makes removal O(columns of table).
        self._tables: dict[str, TableSketch] = {}
        # normalised column name -> keys; the schema-evidence channel.
        self._name_buckets: dict[str, set[tuple[str, str]]] = {}
        # The columnar copy of this generation; any add / remove drops it.
        self._arrays: Optional[_Columnar] = None

    @classmethod
    def from_store(cls, store) -> "LakeIndex":
        """Build an index over every sketch currently in *store*."""
        index = cls(config=store.config)
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
        """How many columns are bucketed (the empty ones are not)."""
        return len({c.key for t in self._tables.values() for c in t.columns if c.minhash.set_size})

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
        self._arrays = None
        if table_sketch.name in self._tables:
            self.remove(table_sketch.name)
        self._tables[table_sketch.name] = table_sketch
        for column in table_sketch.columns:
            if column.minhash.set_size == 0:
                continue  # empty columns collide with everything trivially
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
        self._arrays = None
        for column in doomed.columns:
            column_key = column.key
            if column.minhash.set_size == 0:
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

    def _columnar(self) -> _Columnar:
        """This generation's columnar copy, built on first use after a change."""
        if self._arrays is None:
            self._arrays = _Columnar.build(self._tables.values(), self.config.num_permutations)
        return self._arrays

    def signature_block(
        self, names: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """What :func:`~repro.discovery.cascade.candidate_signals` prices *names* from.

        ``(signatures, offsets, max_values)``: the ``uint32`` signatures of
        every column of the named tables (the empty ones too), stacked in
        *names* order, ``names[i]`` owning rows ``offsets[i]:offsets[i + 1]``;
        and each table's largest non-missing cell count.
        """
        columns = self._columnar()
        slots = np.array([columns.slots[name] for name in names], dtype=np.intp)
        starts = columns.offsets[slots]
        sizes = columns.offsets[slots + 1] - starts
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        return columns.signatures[rows], offsets, columns.max_values[slots].tolist()

    def candidate_tables(
        self,
        query: TableSketch,
        top_k: Optional[int] = None,
    ) -> list[CandidateTable]:
        """Rank lake tables by sketch-level evidence against *query*.

        Lake columns sharing ≥1 LSH band or a normalised name with a query
        column are refined and scored by estimated Jaccard; name-equal
        columns score at least ``params.name_match_score`` regardless of
        value overlap (so disjoint partitions of one schema stay
        discoverable).  Each query column votes for the best-matching column
        per candidate table (ties to the smallest column key); a table's
        score is the mean of those votes over the query's columns (so a
        table matching all query columns outranks one matching a single
        column equally well).  A lake table named like the query is never a
        candidate.
        """
        if not query.columns:
            return []
        columns = self._columnar()
        params = self.params
        # In name order, so a query column's number orders its name too.
        query_columns = sorted(query.columns, key=lambda column: column.column_name)
        # Each query column's name collisions, then its band-only ones.
        colliding: list[int] = []
        counts: list[int] = []
        for query_column in query_columns:
            seen: set[tuple[str, str]] = set()
            for bucket_key in self._band_keys(query_column):
                seen.update(self._buckets.get(bucket_key, ()))
            named: Iterable[tuple[str, str]] = ()
            if params.name_match_score > 0:
                named = self._name_buckets.get(self._name_key(query_column.column_name), ())
                seen.difference_update(named)
            colliding += map(columns.rows.__getitem__, named)
            colliding += map(columns.rows.__getitem__, seen)
            counts += (len(named), len(seen))
        telemetry.count("lsh.bands_probed", params.bands * len(query_columns))
        telemetry.count("lsh.bucket_candidates", sum(counts))
        groups = np.arange(2 * len(query_columns))
        q, name_match = np.repeat(groups // 2, counts), np.repeat(groups % 2 == 0, counts)
        row = np.array(colliding, dtype=np.intp)
        keep = columns.table_of[row] != columns.slots.get(query.name, -1)
        q, row, name_match = q[keep], row[keep], name_match[keep]

        query_types = np.array([TYPE_INDEX[c.data_type] for c in query_columns])
        compatibility = TYPE_COMPATIBILITY_MATRIX[query_types[q], columns.types[row]]
        type_rejected = compatibility < params.min_type_compatibility
        checked = ~type_rejected & ~name_match
        sizes_q = np.array([len(c.histogram) for c in query_columns])[q]
        sizes_c = columns.histogram_sizes[row]
        compared = checked & (sizes_q > 0) & (sizes_c > 0)  # an empty one is at 0
        if np.any(compared & (sizes_q != sizes_c)):
            raise ValueError("histograms must use the same number of buckets")
        distance = np.zeros(len(row))
        if compared.any():
            buckets = columns.histograms.shape[1]
            padded = [(c.histogram + (0.0,) * buckets)[:buckets] for c in query_columns]
            histograms = np.array(padded)
            distance[compared] = _builtin_sums(
                np.abs(histograms[q[compared]] - columns.histograms[row[compared]])
            )
        histogram_rejected = checked & (distance > params.max_histogram_distance)
        scored = ~type_rejected & ~histogram_rejected
        similarity = np.zeros(len(row))
        if scored.any():
            signatures = np.array([c.minhash.values for c in query_columns], dtype=np.uint32)
            width = columns.signatures.shape[1]
            if signatures.shape[1] != width:
                raise ValueError("signatures must use the same number of permutations")
            if width:
                equal = signatures[q[scored]] == columns.signatures[row[scored]]
                similarity[scored] = np.count_nonzero(equal, axis=1) / width
        similarity[name_match] = np.maximum(similarity[name_match], params.name_match_score)
        jaccard_rejected = scored & (similarity < params.min_jaccard)
        accepted = scored & ~jaccard_rejected
        for stage, rejected in zip(
            ("type", "histogram", "jaccard"), (type_rejected, histogram_rejected, jaccard_rejected)
        ):
            if rejected.any():
                telemetry.count(f"lsh.{stage}_rejected", int(rejected.sum()))
        telemetry.count("lsh.columns_accepted", int(accepted.sum()))
        if not accepted.any():
            return []

        q, row, similarity = q[accepted], row[accepted], similarity[accepted]
        table = columns.table_of[row]
        # One vote per (query column, table): the best score, ties to the
        # smallest column key; then each table's votes in column_pairs order.
        order = np.lexsort((row, -similarity, table, q))
        q, row, similarity, table = q[order], row[order], similarity[order], table[order]
        first = np.concatenate(([True], (q[1:] != q[:-1]) | (table[1:] != table[:-1])))
        vote = np.flatnonzero(first)
        order = vote[np.lexsort((row[vote], q[vote], -similarity[vote], table[vote]))]
        q, row, similarity, table = q[order], row[order], similarity[order], table[order]
        first = np.concatenate(([True], table[1:] != table[:-1]))
        bounds = [*np.flatnonzero(first).tolist(), len(table)]
        spans = [slice(start, end) for start, end in zip(bounds, bounds[1:])]
        query_names = [query_columns[p].column_name for p in q.tolist()]
        column_names = [columns.column_names[r] for r in row.tolist()]
        votes = similarity.tolist()
        pairs = list(zip(query_names, column_names, votes))
        # Summed vote by vote in column_pairs order, as ``sum`` adds them.
        scores = np.array([sum(votes[span]) for span in spans]) / query.num_columns
        tables = table[bounds[:-1]]
        ranking = np.lexsort((tables, -scores))[:top_k]
        return [
            CandidateTable(columns.tables[tables[t]], float(scores[t]), tuple(pairs[spans[t]]))
            for t in ranking.tolist()
        ]
