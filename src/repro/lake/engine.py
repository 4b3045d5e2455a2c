"""Discovery engine that prunes with the lake index before matching.

``DiscoveryEngine`` is O(lake size x matcher cost) per query.  The
:class:`LakeDiscoveryEngine` replaces the scan with a two-stage plan:

1. **Prune** — sketch the query table (a few ms) and ask the
   :class:`~repro.lake.index.LakeIndex` for the top candidate tables by
   sketch-level evidence; everything else in the lake is never touched.
2. **Rerank** — run the configured :class:`BaseMatcher` only on the
   survivors and derive the usual joinability/unionability scores; on the
   same candidates the ranking equals ``DiscoveryEngine.discover``'s.

The rerank is the one plan of
:func:`~repro.discovery.search.prune_then_rerank` (bounds → order →
skip/resolve/score → cutoff feedback), run in this process.  This engine
supplies its three inputs per query: the LSH shortlist, a
:class:`StoreResolver` built from the shortlist's one batched
:meth:`SketchStore.table_meta` read, and — when a bound could skip a
candidate — the stage-1 signals, priced in one call per query from the
signature matrix the :class:`~repro.lake.index.LakeIndex` already holds
decoded, never from the store.  A bound can skip only under a top-k cutoff
and only when the matcher's
:meth:`~repro.matchers.base.BaseMatcher.score_ceiling` for the prepared
query is finite and, lifted to the mode, above 0; any other query computes
no signal and no bound.  A candidate is priced only while its indexed
content hash equals the one ``table_meta`` just returned — a bound never
meets content other than the payload it prices; the rest are scored
exactly.
"""

from __future__ import annotations

import logging
import math
import sqlite3
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.data.csv_io import UNREADABLE_CSV, read_csv
from repro.data.table import Column, Table
from repro.discovery.cascade import CandidateSignals, candidate_signals, mode_bound
from repro.discovery.prepared import PreparedStore, PreparedTableCache
from repro.discovery.search import (
    CANDIDATE_MULTIPLIER,
    DEFAULT_MIN_CANDIDATES,
    DiscoveryResult,
    Resolved,
    prune_then_rerank,
)
from repro.lake.index import CandidateTable, LakeIndex
from repro.lake.profiles import TableSketch, sketch_table
from repro.lake.store import SketchStore
from repro.matchers.base import BaseMatcher, PreparedTable
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.stats import QueryStats

__all__ = ["LakeDiscoveryEngine", "BatchQueryResult", "StoreResolver"]

logger = logging.getLogger(__name__)


@dataclass
class BatchQueryResult:
    """One query's outcome within a :meth:`LakeDiscoveryEngine.query_many` batch."""

    results: list[DiscoveryResult]
    stats: QueryStats


@dataclass
class StoreResolver:
    """The one candidate resolver: name → something the matcher can score.

    A candidate comes only from the lake.  For a schema-based matcher
    (``uses_instances`` False) it is its sketch in the query's resident
    index — or, rewritten since the index refresh, in the store — as a
    zero-row :class:`Table` of typed columns: no CSV, no prepared row.
    Otherwise, per name, in order: the stored prepared payload, keyed by the
    content hash recorded at build time and read in **one** batched
    :meth:`PreparedStore.get_many` per call (a hit skips the CSV read *and*
    the prepare); else the CSV recorded at build time, read and — when there
    is a prepared store — prepared and written through so one cold query
    warms the next.  Names with neither payload nor readable CSV are omitted.

    Keying by build-time hash keeps the warm rerank consistent with the
    sketch shortlist: both answer as of the last ``lake build`` (a CSV
    edited since keeps serving its build-time payload until the rebuild
    moves the stored hash).  A candidate with no stored payload is prepared
    from its CSV as it is *now*, and the store keys that payload by the
    current content.
    """

    #: ``name -> (build-time content hash, source CSV path)`` for the
    #: shortlist, from the query's single :meth:`SketchStore.table_meta`.
    meta: Mapping[str, tuple[str, Optional[str]]]
    #: The resident index the shortlist came from, and the store behind it.
    index: LakeIndex
    store: SketchStore
    fingerprint: str
    prepared_store: Optional[PreparedStore] = None

    def __call__(self, names: Sequence[str], matcher: BaseMatcher) -> Resolved:
        if not matcher.uses_instances:
            schemas = (self._schema(name) for name in names if name in self.meta)
            return [table for table in schemas if table is not None], 0
        stored: dict[str, PreparedTable] = {}
        if self.prepared_store is not None:
            keys = [
                (name, self.meta[name][0])
                for name in names
                if name in self.meta and self.meta[name][0]
            ]
            if keys:
                stored = self.prepared_store.get_many(self.fingerprint, keys)
        resolved: list[Union[Table, PreparedTable]] = []
        for name in names:
            candidate = stored.get(name)
            if candidate is None:
                candidate = self._load(name, matcher)
            if candidate is not None:
                resolved.append(candidate)
        return resolved, len(stored)

    def _schema(self, name: str) -> Optional[Table]:
        """A schema-based matcher's candidate: its sketched typed columns."""
        sketch = self.index.sketch(name)
        if sketch.content_hash != self.meta[name][0]:
            sketch = self.store.get(name)  # rewritten since the index refresh
        if sketch is None:
            return None
        return Table(sketch.name, [Column(c.column_name, (), c.data_type) for c in sketch.columns])

    def _load(
        self, name: str, matcher: BaseMatcher
    ) -> Union[Table, PreparedTable, None]:
        """The cold path: read the candidate's CSV, prepare, write through."""
        path = self.meta[name][1] if name in self.meta else None
        if path is None:
            logger.debug("candidate %r has no stored payload and no CSV; dropped", name)
            return None
        try:
            with telemetry.span("rerank.csv_read", table=name):
                table = read_csv(path, name=name)
        except UNREADABLE_CSV as exc:
            # Stale store entry: the CSV moved, or was overwritten with
            # something unreadable, since `build`.  Skip the candidate.
            logger.warning(
                "skipping candidate %r: unreadable CSV %s (%s)", name, path, exc
            )
            return None
        if self.prepared_store is None:
            return table
        try:
            with telemetry.span("rerank.prepare_candidate", table=name):
                return self.prepared_store.prepare(matcher, table)
        except sqlite3.Error:
            # Lost the write lock to another process (a daemon, `watch`,
            # another query).  The raw table still serves this query (the
            # matcher prepares it); only reuse is lost.
            logger.warning("write-through of %r lost to store contention", name)
            telemetry.count("prepared_store.write_contention")
            return table


@dataclass
class LakeDiscoveryEngine:
    """Index-accelerated dataset discovery over a persistent sketch store.

    Every candidate comes from the lake (:class:`StoreResolver`): its
    sketch, or a stored prepared payload, else the CSV recorded when the
    table was sketched (:func:`~repro.lake.build.build_from_paths`, or
    :meth:`SketchStore.add_table` with ``source_path=``).

    Attributes
    ----------
    matcher:
        Any :class:`BaseMatcher`; only shortlisted candidates see it.
    store:
        The persistent sketch store backing the index.
    min_candidates:
        Shortlist size for a ``top_k`` query is
        ``max(min_candidates, CANDIDATE_MULTIPLIER * top_k)`` — the slack is
        what lets the exact matcher repair sketch-level ranking mistakes.
    prepared_store:
        Optional :class:`~repro.discovery.prepared.PreparedStore` — the
        persistent prepared-candidate store (``<store>.prepared`` when
        opened by :func:`~repro.lake.opening.open_lake`), for an
        instance-based matcher.  When set, shortlisted candidates whose
        prepared payload is stored (keyed by this matcher's fingerprint and
        the content hash recorded at build time) are served straight from
        disk — no CSV read, no prepare — and cold candidates are written
        through after their first prepare, so one query warms the next.
        The query table itself is never written there: it is prepared into
        a private in-memory
        :class:`~repro.discovery.prepared.PreparedTableCache`, so a repeated
        query skips its prepare without adding a row to the lake.  Without a
        prepared store the query is prepared afresh every time.
    """

    matcher: BaseMatcher
    store: SketchStore
    min_candidates: int = DEFAULT_MIN_CANDIDATES
    prepared_store: Optional[PreparedStore] = None
    #: Structured statistics of the last :meth:`query` — stage durations,
    #: shortlist/rerank sizes, store hits, and (when a telemetry recorder is
    #: active) the full counter/span snapshot of that query.
    last_query_stats: Optional[QueryStats] = field(default=None, repr=False, init=False)
    _index: Optional[LakeIndex] = field(default=None, repr=False, init=False)
    _index_version: int = field(default=-1, repr=False, init=False)
    _query_cache: PreparedTableCache = field(
        default_factory=PreparedTableCache, repr=False, init=False
    )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the resident index.

        Idempotent, and the engine stays usable: a later query rebuilds the
        index from the store.  The stores belong to whoever constructed
        them and stay open.
        """
        self._index = None
        self._index_version = -1

    def __enter__(self) -> "LakeDiscoveryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def index(self) -> LakeIndex:
        """The LSH index, kept in sync with the store.

        Built once from the whole store, then refreshed *incrementally* when
        the store version moves on: only tables sketched after the index's
        version are (re)added and vanished tables removed, so one mutation
        on a large lake does not trigger an O(lake) rebuild.  Every access
        probes the version, so a removal by any process reaches the next one.
        """
        store_version = self.store.version
        if self._index is None:
            self._index = LakeIndex.from_store(self.store)
        elif self._index_version != store_version:
            current = set(self.store.table_names)
            for name in self._index.table_names - current:
                self._index.remove(name)
            for name in self.store.updated_since(self._index_version):
                sketch = self.store.get(name)
                if sketch is not None:
                    self._index.add(sketch)
        self._index_version = store_version
        return self._index

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _probe(
        self, index: LakeIndex, query: Table, top_k: Optional[int]
    ) -> tuple[list[CandidateTable], TableSketch]:
        """*index*'s candidates for *query*, plus the sketch it was probed with.

        The cascade's stage-1 signals compare candidate sketches against the
        *same* query sketch the LSH shortlist used, so stage 1 never pays a
        second sketching pass.
        """
        limit = None
        if top_k is not None:
            limit = max(self.min_candidates, CANDIDATE_MULTIPLIER * top_k)
        sketch = sketch_table(query, self.store.config, content_hash="")
        return index.candidate_tables(sketch, top_k=limit), sketch

    def query(
        self,
        query: Table,
        *,
        mode: str = "joinable",
        top_k: Optional[int] = None,
    ) -> list[DiscoveryResult]:
        """Rank lake tables against *query*: prune with the index, rerank.

        Parameters
        ----------
        query:
            The input table (does not need to be in the store).  Candidates
            come only from the lake (:class:`StoreResolver`); a candidate
            the lake cannot produce is excluded from the ranking.
        mode:
            ``"joinable"``, ``"unionable"`` or ``"combined"`` (same
            semantics as :meth:`DiscoveryEngine.discover`).
        top_k:
            Truncate the final ranking (also bounds the shortlist).

        With a *top_k* and a query its matcher can bound in this *mode*
        (:meth:`~repro.matchers.base.BaseMatcher.score_ceiling`), the
        shortlist is priced: per-candidate score bounds are derived from
        the sketches the index holds, the matcher runs best-bound-first and
        skips candidates whose finite (sound) bound proves they cannot reach
        the top-k.  The ranking is the one scoring every candidate would
        give.

        Afterwards :attr:`last_query_stats` holds the structured statistics
        of this query (stage durations, shortlist/rerank sizes, store hits).
        When a :class:`~repro.telemetry.TelemetryRecorder` is active (via
        ``telemetry.use(...)`` or ``set_default_recorder``), the query runs
        under a private child recorder whose counter/span snapshot is merged
        back into the active recorder *and* attached to the stats — so
        per-query attribution survives even on a shared recorder.
        """
        (outcome,) = self.query_many([query], mode=mode, top_k=top_k)
        return outcome.results

    def query_many(
        self,
        queries: Sequence[Table],
        *,
        mode: str = "joinable",
        top_k: Optional[int] = None,
    ) -> list[BatchQueryResult]:
        """Run several queries, each exactly as :meth:`query` would.

        Returns one :class:`BatchQueryResult` (results + stats) per query,
        in input order — what a caller that needs the stats with the
        results uses (``lake serve`` calls it with one query per ticket).
        The queries run one after the other.
        """
        outcomes = [self._query_one(query, mode, top_k) for query in queries]
        if outcomes:
            self.last_query_stats = outcomes[-1].stats
        return outcomes

    def _query_one(
        self, query: Table, mode: str, top_k: Optional[int]
    ) -> BatchQueryResult:
        """Shortlist → prepared query → signals if a bound could skip →
        the rerank plan → stats."""
        parent = telemetry.get_recorder()
        child = TelemetryRecorder() if parent.enabled else None
        start = time.perf_counter()
        with telemetry.use(child) if child is not None else nullcontext():
            with telemetry.span("query.shortlist", table=query.name):
                index = self.index
                shortlist, query_sketch = self._probe(index, query, top_k)
            shortlist_seconds = time.perf_counter() - start
            names = [entry.table_name for entry in shortlist]
            # The query's one sketch-store read: build-time hashes and CSV
            # paths for the resolver.
            meta = self.store.table_meta([n for n in names if n != query.name])
            fingerprint = ""
            if self.prepared_store is not None:
                fingerprint = self.matcher.fingerprint()
            rerank_start = time.perf_counter()
            with telemetry.span("discovery.prepare_query", table=query.name):
                if self.prepared_store is not None:
                    query_prepared = self._query_cache.prepare(self.matcher, query)
                else:
                    query_prepared = self.matcher.prepare(query)
            signals: Optional[dict[str, CandidateSignals]] = None
            # A bound skips a candidate only when it falls below the top-k
            # cutoff: pricing needs a cutoff and a finite ceiling above 0 in
            # this mode (at 0 every score, and so the cutoff, is 0).
            ceiling = mode_bound(self.matcher.score_ceiling(query_prepared), mode)
            if top_k is not None and 0.0 < ceiling < math.inf:
                # A table whose stored hash moved on since the index was
                # refreshed gets no signal: +inf bound, scored exactly.
                priced = []
                for name, (content_hash, _) in meta.items():
                    sketch = index.sketch(name)
                    if sketch.columns and sketch.content_hash == content_hash:
                        priced.append(name)
                seed = self.store.config.seed
                block = index.signature_block(priced)
                signals = candidate_signals(query_sketch, priced, *block, seed=seed)
            outcome = prune_then_rerank(
                query_prepared,
                names,
                StoreResolver(meta, index, self.store, fingerprint, self.prepared_store),
                self.matcher,
                mode=mode,
                top_k=top_k,
                signals=signals,
            )
        end = time.perf_counter()
        snapshot = None
        if child is not None:
            snapshot = child.snapshot()
            parent.merge(snapshot)
        stats = QueryStats(
            query_name=query.name,
            mode=mode,
            shortlist_size=len(names),
            rerank_count=outcome.scored,
            store_hits=outcome.store_hits,
            total_seconds=end - start,
            shortlist_seconds=shortlist_seconds,
            rerank_seconds=end - rerank_start,
            # An unpriced query is not a cascade: its cascade counters stay
            # 0 even though every candidate was scored.
            cascade_skipped=outcome.skipped,
            cascade_exact=outcome.scored if signals is not None else 0,
            snapshot=snapshot,
        )
        return BatchQueryResult(results=outcome.results, stats=stats)
