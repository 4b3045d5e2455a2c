"""Discovery engine that prunes with the lake index before matching.

``DiscoveryEngine`` is O(lake size x matcher cost) per query.  The
:class:`LakeDiscoveryEngine` replaces the scan with a two-stage plan:

1. **Prune** — sketch the query table (a few ms) and ask the
   :class:`~repro.lake.index.LakeIndex` for the top candidate tables by
   sketch-level evidence; everything else in the lake is never touched.
2. **Rerank** — run the configured :class:`BaseMatcher` only on the
   survivors and derive the usual joinability/unionability scores, exactly
   as the brute-force engine would.

The rerank is the one plan of
:func:`~repro.discovery.search.prune_then_rerank` (bounds → order →
skip/resolve/score → cutoff feedback), run in this process.  This engine
supplies its three inputs per query: the LSH shortlist, a
:class:`StoreResolver` built from the shortlist's one batched
:meth:`SketchStore.table_meta` read, and — when ``cascade`` asks for them —
the stage-1 signals, condensed from the sketches the
:class:`~repro.lake.index.LakeIndex` already holds decoded, never from the
store.  A candidate is priced only while its indexed content hash equals
the one ``table_meta`` just returned — a bound never meets content other
than the payload it prices; the rest are scored exactly.
"""

from __future__ import annotations

import logging
import sqlite3
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.data.csv_io import UNREADABLE_CSV, read_csv
from repro.data.table import Table
from repro.discovery.cascade import CandidateSignals, candidate_signals
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import (
    DEFAULT_CANDIDATE_MULTIPLIER,
    DEFAULT_MIN_CANDIDATES,
    DEFAULT_UNION_THRESHOLD,
    DatasetRepository,
    DiscoveryResult,
    PairScorer,
    Resolved,
    prune_then_rerank,
)
from repro.lake.index import CandidateTable, LakeIndex, LSHParams
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

    Per name, in order: the in-memory *repository* table; the stored
    prepared payload, keyed by the content hash recorded at build time and
    read in **one** batched :meth:`PreparedStore.get_many` per call (a hit
    skips the CSV read *and* the prepare); the source CSV, read and — when
    there is a prepared store — prepared and written through so one cold
    query warms the next.  Names with neither payload nor readable CSV are
    omitted (they cannot be ranked).

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
    fingerprint: str
    prepared_store: Optional[PreparedStore] = None
    repository: Optional[DatasetRepository] = None

    def __call__(self, names: Sequence[str], matcher: BaseMatcher) -> Resolved:
        in_memory: dict[str, Table] = {}
        if self.repository is not None:
            tables = ((name, self.repository.get(name)) for name in names)
            in_memory = {name: table for name, table in tables if table is not None}
        stored: dict[str, PreparedTable] = {}
        if self.prepared_store is not None:
            keys = [
                (name, self.meta[name][0])
                for name in names
                if name not in in_memory and name in self.meta and self.meta[name][0]
            ]
            if keys:
                stored = self.prepared_store.get_many(self.fingerprint, keys)
        resolved: list[Union[Table, PreparedTable]] = []
        for name in names:
            candidate = in_memory.get(name)
            if candidate is None:
                candidate = stored.get(name)
            if candidate is None:
                candidate = self._load(name, matcher)
            if candidate is not None:
                resolved.append(candidate)
        return resolved, len(stored)

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
            # scorer prepares it); only reuse is lost.
            logger.warning("write-through of %r lost to store contention", name)
            telemetry.count("prepared_store.write_contention")
            return table


@dataclass
class LakeDiscoveryEngine:
    """Index-accelerated dataset discovery over a persistent sketch store.

    Attributes
    ----------
    matcher:
        Any :class:`BaseMatcher`; only shortlisted candidates see it.
    store:
        The persistent sketch store backing the index.
    params:
        LSH banding / pre-filter parameters.
    union_threshold:
        Column-score threshold of the unionability measure.
    candidate_multiplier / min_candidates:
        Shortlist size for a ``top_k`` query is
        ``max(min_candidates, candidate_multiplier * top_k)`` — the slack is
        what lets the exact matcher repair sketch-level ranking mistakes.
    prepared_store:
        Optional :class:`~repro.discovery.prepared.PreparedStore` — the
        persistent prepared-candidate store, conventionally living next to
        the sketch store.  When set, shortlisted candidates whose prepared
        payload is stored (keyed by this matcher's fingerprint and the
        content hash recorded at build time) are served straight from disk
        — no CSV read, no prepare — and cold candidates are written through
        after their first prepare, so one query warms the next.
    """

    matcher: BaseMatcher
    store: SketchStore
    params: LSHParams = field(default_factory=LSHParams)
    union_threshold: float = DEFAULT_UNION_THRESHOLD
    candidate_multiplier: int = DEFAULT_CANDIDATE_MULTIPLIER
    min_candidates: int = DEFAULT_MIN_CANDIDATES
    prepared_store: Optional[PreparedStore] = None
    #: Structured statistics of the last :meth:`query` — stage durations,
    #: shortlist/rerank sizes, store hits, and (when a telemetry recorder is
    #: active) the full counter/span snapshot of that query.
    last_query_stats: Optional[QueryStats] = field(default=None, repr=False, init=False)
    _index: Optional[LakeIndex] = field(default=None, repr=False, init=False)
    _index_version: int = field(default=-1, repr=False, init=False)

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

    # ------------------------------------------------------------------ #
    # build / maintenance
    # ------------------------------------------------------------------ #
    def build(
        self,
        tables: Union[DatasetRepository, Iterable[Table]],
        source_paths: Optional[dict[str, str]] = None,
    ) -> int:
        """Add every table to the store; returns how many (re)sketches ran.

        Unchanged tables (same content hash) are cache hits and cost one
        hash, not a re-profile.
        """
        changed = 0
        for table in tables:
            path = (source_paths or {}).get(table.name)
            if self.store.add_table(table, source_path=path):
                changed += 1
        return changed

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
            self._index = LakeIndex.from_store(self.store, params=self.params)
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
    def shortlist(
        self, query: Table, top_k: Optional[int] = None
    ) -> list[CandidateTable]:
        """Sketch *query* and return the index's candidate tables."""
        return self._probe(self.index, query, top_k)[0]

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
            limit = max(self.min_candidates, self.candidate_multiplier * top_k)
        sketch = sketch_table(query, self.store.config, content_hash="")
        return index.candidate_tables(sketch, top_k=limit), sketch

    def query(
        self,
        query: Table,
        repository: Optional[DatasetRepository] = None,
        mode: str = "joinable",
        top_k: Optional[int] = None,
        cascade: bool = False,
        budget_ms: Optional[float] = None,
    ) -> list[DiscoveryResult]:
        """Rank lake tables against *query*: prune with the index, rerank.

        Parameters
        ----------
        query:
            The input table (does not need to be in the store).
        repository:
            Where candidate values live.  When omitted, candidates are read
            lazily from the CSV paths recorded at build time; candidates
            available neither in the repository nor on disk cannot be
            matched and are excluded from the ranking.
        mode:
            ``"joinable"``, ``"unionable"`` or ``"combined"`` (same
            semantics as :meth:`DiscoveryEngine.discover`).
        top_k:
            Truncate the final ranking (also bounds the shortlist).
        cascade:
            Price the shortlist: per-candidate score bounds are derived
            from the sketches the index holds, the matcher runs best-bound-first
            and — when it declares its bounds admissible — skips candidates
            proven unable to reach the top-k.  Without a budget the ranking
            is identical to ``cascade=False``.
        budget_ms:
            Anytime budget for the rerank stage, in milliseconds.  When the
            deadline passes, scoring stops and the current best-effort top-k
            is returned with ``last_query_stats.partial`` set.  Works with
            or without ``cascade``.

        Afterwards :attr:`last_query_stats` holds the structured statistics
        of this query (stage durations, shortlist/rerank sizes, store hits).
        When a :class:`~repro.telemetry.TelemetryRecorder` is active (via
        ``telemetry.use(...)`` or ``set_default_recorder``), the query runs
        under a private child recorder whose counter/span snapshot is merged
        back into the active recorder *and* attached to the stats — so
        per-query attribution survives even on a shared recorder.
        """
        (outcome,) = self.query_many([query], repository, mode, top_k, cascade, budget_ms)
        return outcome.results

    def query_many(
        self,
        queries: Sequence[Table],
        repository: Optional[DatasetRepository] = None,
        mode: str = "joinable",
        top_k: Optional[int] = None,
        cascade: bool = False,
        budget_ms: Optional[float] = None,
    ) -> list[BatchQueryResult]:
        """Run several queries, each exactly as :meth:`query` would.

        Returns one :class:`BatchQueryResult` (results + stats) per query,
        in input order — what a caller that needs the stats with the
        results uses (``lake serve`` calls it with one query per ticket).
        The queries run one after the other.
        """
        outcomes = [
            self._query_one(query, repository, mode, top_k, cascade, budget_ms)
            for query in queries
        ]
        if outcomes:
            self.last_query_stats = outcomes[-1].stats
        return outcomes

    def _query_one(
        self,
        query: Table,
        repository: Optional[DatasetRepository],
        mode: str,
        top_k: Optional[int],
        cascade: bool,
        budget_ms: Optional[float],
    ) -> BatchQueryResult:
        """Shortlist → signals if *cascade* → the rerank plan → stats."""
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
            signals: Optional[dict[str, CandidateSignals]] = None
            if cascade:
                # A table whose stored hash moved on since the index was
                # refreshed gets no signal: +inf bound, scored exactly.
                signals = {}
                for name, (content_hash, _) in meta.items():
                    sketch = index.sketch(name)
                    if sketch.columns and sketch.content_hash == content_hash:
                        signals[name] = candidate_signals(
                            query_sketch, sketch.columns, seed=self.store.config.seed
                        )
            fingerprint = ""
            if self.prepared_store is not None:
                fingerprint = self.matcher.fingerprint()
            rerank_start = time.perf_counter()
            outcome = prune_then_rerank(
                query,
                names,
                StoreResolver(meta, fingerprint, self.prepared_store, repository),
                PairScorer(matcher=self.matcher, union_threshold=self.union_threshold),
                mode=mode,
                top_k=top_k,
                prepared_cache=self.prepared_store,
                signals=signals,
                budget_ms=budget_ms,
            )
        end = time.perf_counter()
        snapshot = None
        if child is not None:
            snapshot = child.snapshot()
            parent.merge(snapshot)
        # An unpriced, unbudgeted query is not a cascade: its cascade
        # counters stay 0 even though every candidate was scored.
        armed = cascade or budget_ms is not None
        stats = QueryStats(
            query_name=query.name,
            mode=mode,
            shortlist_size=len(names),
            rerank_count=outcome.scored,
            store_hits=outcome.store_hits,
            total_seconds=end - start,
            shortlist_seconds=shortlist_seconds,
            rerank_seconds=end - rerank_start,
            partial=outcome.partial,
            cascade_skipped=outcome.skipped if armed else 0,
            cascade_exact=outcome.scored if armed else 0,
            snapshot=snapshot,
        )
        return BatchQueryResult(results=outcome.results, stats=stats)
