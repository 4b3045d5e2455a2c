"""MinHash LSH banding index over column sketches.

Classic banding scheme (used by LSH Ensemble and Aurum's value-overlap
graph): a signature of ``bands x rows`` hashes is split into ``bands``
fragments; two columns land in the same bucket of band *i* when their
*i*-th fragments are identical.  A pair with Jaccard similarity *s* collides
in at least one band with probability ``1 - (1 - s^rows)^bands`` — an
S-curve that passes near-certainly above the similarity threshold and
near-never below it, which is what makes candidate generation sublinear in
lake size.

The bands are sorted arrays cut from the signature matrix of a columnar
copy of the indexed columns.  A query's band collisions, found by exact
byte equality, are refined with cheap sketch-level checks (full signature
Jaccard, data-type compatibility, hash-space histogram distance) before
any expensive matcher sees the pair, in one pass of array expressions.

The index is also the process's one decoded copy of the lake's sketches: it
keeps every table's sketch whole (:meth:`LakeIndex.sketch`), and the rerank
cascade prices a shortlist from its signature matrix
(:meth:`LakeIndex.signature_block`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.data.types import TYPE_COMPATIBILITY_MATRIX
from repro.lake.profiles import SketchConfig, TableSketch
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


#: An empty row list: a query column no lake column shares a name with.
_NO_ROWS = np.empty(0, np.intp)

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


def _band_keys(signatures: np.ndarray, params: LSHParams) -> tuple[np.ndarray, np.ndarray]:
    """Each band of *signatures*, band-major, as a byte string, and its sort
    key: the band number, then its first and last hash (less a few bits)."""
    bands, rows = params.bands, params.rows
    slices = signatures[:, : bands * rows].reshape(-1, bands, rows).transpose(1, 0, 2)
    slices = np.ascontiguousarray(slices).reshape(-1, rows)
    shift = np.uint64(max(1, (bands - 1).bit_length()))
    number = np.repeat(np.arange(bands, dtype=np.uint64), len(signatures)) << np.uint64(64) - shift
    hashes = slices[:, 0].astype(np.uint64) << np.uint64(32) | slices[:, -1]
    return number | hashes >> shift, slices.view(np.dtype((np.void, 4 * rows))).ravel()


def _by_name(sketch: TableSketch) -> list[int]:
    """The positions of *sketch*'s columns, in column name order."""
    return sorted(range(sketch.num_columns), key=sketch.column_names.__getitem__)


def _name_key(column_name: str) -> str:
    """A column name as the name channel files it."""
    return column_name.strip().lower()


def _check_widths(sketch: TableSketch, config: SketchConfig) -> None:
    """Refuse a sketch with columns whose signatures or histograms are not
    as wide as *config* makes them."""
    if sketch.num_columns and sketch.signatures.shape[1] != config.num_permutations:
        raise ValueError("signatures must use the same number of permutations")
    if sketch.num_columns and sketch.histograms.shape[1] != config.num_buckets:
        raise ValueError("histograms must use the same number of buckets")


@dataclass(frozen=True)
class _Columnar:
    """One index generation's columns as arrays: a row per column of every
    table, the empty ones too (pricing compares them), sorted by
    ``(table name, column name)`` so row and table numbers order keys and
    names the way ``str`` compares them; ``names`` and ``band_*`` hold the
    bucketed ones."""

    names: dict[str, np.ndarray]  # normalised column name -> its rows
    band_prefixes: np.ndarray  # the sort keys of _band_keys, ascending
    band_keys: np.ndarray  # the bands as byte strings, in that order
    band_rows: np.ndarray  # the row each band belongs to
    column_names: list[str]
    signatures: np.ndarray  # uint32, rows x permutations
    histograms: np.ndarray  # float64, rows x buckets
    types: np.ndarray  # TYPE_INDEX codes
    table_of: np.ndarray  # row -> table number
    tables: list[str]
    slots: dict[str, int]  # table name -> table number
    offsets: np.ndarray  # table number -> its first row, plus the end
    max_values: np.ndarray  # largest non-missing cell count per table

    @classmethod
    def build(
        cls, sketches: Iterable[TableSketch], config: SketchConfig, params: LSHParams
    ) -> "_Columnar":
        tables = sorted(sketches, key=lambda table: table.name)
        widths = [table.num_columns for table in tables]
        offsets = np.cumsum([0] + widths)
        # A table without columns has (0, 0) matrices: left out.
        filled = [i for i, width in enumerate(widths) if width]
        order = [np.add(_by_name(tables[i]), offsets[i]) for i in filled]
        order = np.concatenate(order) if order else np.empty(0, np.intp)

        def stacked(field: str, empty: np.ndarray) -> np.ndarray:
            arrays = [getattr(tables[i], field) for i in filled]
            return np.concatenate(arrays)[order] if arrays else empty

        permutations, buckets = config.num_permutations, config.num_buckets
        signatures = stacked("signatures", np.empty((0, permutations), np.uint32))
        counts = stacked("counts", np.empty((0, 4), np.int64))
        column_names = list(chain(*(tables[i].column_names for i in filled)))
        column_names = [column_names[row] for row in order.tolist()]
        # Empty columns collide with everything trivially: never bucketed.
        bucketed = np.flatnonzero(counts[:, 0])
        names: dict[str, list[int]] = {}
        for row in bucketed.tolist():
            names.setdefault(_name_key(column_names[row]), []).append(row)
        prefixes, keys = _band_keys(signatures[bucketed], params)
        band_order = np.argsort(prefixes)
        non_missing = np.maximum(counts[:, 1] - counts[:, 3], 0)
        max_values = np.zeros(len(tables), np.int64)
        if filled:
            max_values[filled] = np.maximum.reduceat(non_missing, offsets[filled])
        return cls(
            names={name: np.array(rows, np.intp) for name, rows in names.items()},
            band_prefixes=prefixes[band_order],
            band_keys=keys[band_order],
            band_rows=np.tile(bucketed, params.bands)[band_order],
            column_names=column_names,
            signatures=signatures,
            histograms=stacked("histograms", np.empty((0, buckets))),
            types=stacked("types", np.empty(0, np.intp)),
            table_of=np.repeat(np.arange(len(tables)), widths),
            tables=[table.name for table in tables],
            slots={table.name: i for i, table in enumerate(tables)},
            offsets=offsets,
            max_values=max_values,
        )


class LakeIndex:
    """In-memory LSH banding index over the column sketches of a lake.

    Opening one from a :class:`SketchStore` only decodes the persisted
    sketches; the band arrays and the name channel are built from their
    arrays at the first query.  :meth:`add` / :meth:`remove` mirror store
    mutations.
    """

    def __init__(
        self,
        config: SketchConfig = SketchConfig(),
        params: LSHParams = LSHParams(),
    ) -> None:
        params.validate(config.num_permutations)
        self.config = config
        self.params = params
        # table name -> its whole sketch.
        self._tables: dict[str, TableSketch] = {}
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

    def add(self, table_sketch: TableSketch) -> None:
        """Insert (or replace) a table's sketch; ``ValueError`` when its
        signatures or histograms are not as wide as the index's config."""
        _check_widths(table_sketch, self.config)
        self._tables[table_sketch.name] = table_sketch
        self._arrays = None

    def remove(self, table_name: str) -> None:
        """Drop every column of *table_name*."""
        if self._tables.pop(table_name, None) is not None:
            self._arrays = None

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
            self._arrays = _Columnar.build(self._tables.values(), self.config, self.params)
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
        if not query.num_columns:
            return []
        _check_widths(query, self.config)
        columns = self._columnar()
        params = self.params
        # In name order, so a query column's number orders its name too.
        order = _by_name(query)
        query_names = [query.column_names[i] for i in order]
        signatures = query.signatures[order]
        # Band collisions: the bands under each query band's sort key that
        # equal it byte for byte, marked per (query column, row).
        prefixes, keys = _band_keys(signatures, params)
        starts = np.searchsorted(columns.band_prefixes, prefixes)
        counts = np.searchsorted(columns.band_prefixes, prefixes, side="right") - starts
        probe = np.repeat(np.arange(len(keys)), counts)
        at = np.arange(len(probe)) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        hit = columns.band_keys.take(at) == keys.take(probe)
        collides = np.zeros((len(query_names), len(columns.column_names)), dtype=bool)
        collides[probe[hit] % len(query_names), columns.band_rows.take(at[hit])] = True
        # Name collisions, then the band-only ones.
        names = columns.names if params.name_match_score > 0 else {}
        named = [names.get(_name_key(name), _NO_ROWS) for name in query_names]
        named_q = np.repeat(np.arange(len(named)), [len(rows) for rows in named])
        named = np.concatenate(named)
        collides[named_q, named] = False
        band_q, band_row = np.nonzero(collides)
        q, row = np.concatenate((named_q, band_q)), np.concatenate((named, band_row))
        telemetry.count("lsh.bands_probed", params.bands * len(query_names))
        telemetry.count("lsh.bucket_candidates", len(q))
        name_match = np.arange(len(q)) < len(named)
        keep = columns.table_of[row] != columns.slots.get(query.name, -1)
        q, row, name_match = q[keep], row[keep], name_match[keep]

        compatibility = TYPE_COMPATIBILITY_MATRIX[query.types[order][q], columns.types[row]]
        type_rejected = compatibility < params.min_type_compatibility
        checked = ~type_rejected & ~name_match
        distance = np.zeros(len(row))
        if checked.any():
            histograms = query.histograms[order]
            distance[checked] = _builtin_sums(
                np.abs(histograms[q[checked]] - columns.histograms[row[checked]])
            )
        histogram_rejected = checked & (distance > params.max_histogram_distance)
        scored = ~type_rejected & ~histogram_rejected
        similarity = np.zeros(len(row))
        if scored.any() and signatures.shape[1]:
            equal = signatures[q[scored]] == columns.signatures[row[scored]]
            similarity[scored] = np.count_nonzero(equal, axis=1) / signatures.shape[1]
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
        sources = [query_names[p] for p in q.tolist()]
        targets = [columns.column_names[r] for r in row.tolist()]
        votes = similarity.tolist()
        pairs = list(zip(sources, targets, votes))
        # Summed vote by vote in column_pairs order, as ``sum`` adds them.
        scores = np.array([sum(votes[span]) for span in spans]) / query.num_columns
        tables = table[bounds[:-1]]
        ranking = np.lexsort((tables, -scores))[:top_k]
        return [
            CandidateTable(columns.tables[tables[t]], float(scores[t]), tuple(pairs[spans[t]]))
            for t in ranking.tolist()
        ]
