"""Dataset discovery over a repository of tables.

This is "Valentine as a Discovery Component" (Section II-B) turned into an
API: a :class:`DatasetRepository` holds candidate tables, and
:class:`DiscoveryEngine` ranks them against a query table by joinability or
unionability using any bundled matcher.

Every discovery query — brute force, index-pruned, or lake-scale — runs
through **one rerank plan**, :func:`prune_then_rerank`:

1. *bounds* — the query is prepared once; whatever stage-1 signals the
   caller supplied become per-candidate ranking-score upper bounds (no
   signals: every bound is ``+inf``);
2. *order* — candidates are sorted best-bound-first (no bounds: shortlist
   order);
3. *score* — one loop in this process skips what an admissible bound
   proves cannot reach the top k, resolves the rest and scores them;
4. *cutoff feedback* — every exact score tightens the running top-k cutoff
   the next skip decision reads.

*Priced versus unpriced is the signals*: they only decide how tight the
bounds are.  They also decide how the loop resolves: a rerank that can
neither skip nor stop early resolves the whole shortlist in one batch (one
store round trip), one that can resolves only the candidate it is about to
score.

:class:`DiscoveryEngine` and
:class:`~repro.lake.engine.LakeDiscoveryEngine` are thin parameterisations
of this plan, so their rankings can never drift apart.
"""

from __future__ import annotations

import heapq
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.data.table import Table
from repro.discovery.cascade import (
    CandidateSignals,
    candidate_signals,
    compute_ranking_bounds,
    order_by_bound,
)
from repro.discovery.prepared import PreparedProvider
from repro.discovery.relatedness import RelatednessScores, relatedness
from repro.matchers.base import BaseMatcher, MatchResult, PreparedTable
from repro.telemetry import recorder as telemetry

logger = logging.getLogger(__name__)

__all__ = [
    "DatasetRepository",
    "DiscoveryResult",
    "DiscoveryEngine",
    "PairScorer",
    "RerankOutcome",
    "RerankPool",
    "prune_then_rerank",
    "mode_score",
    "sort_discovery_results",
    "DEFAULT_MIN_CANDIDATES",
    "DEFAULT_CANDIDATE_MULTIPLIER",
    "DEFAULT_UNION_THRESHOLD",
]

#: Default shortlist slack for index-pruned discovery: an exact top-k query
#: reranks ``max(DEFAULT_MIN_CANDIDATES, DEFAULT_CANDIDATE_MULTIPLIER * k)``
#: sketch-level candidates so the matcher can repair sketch ranking mistakes.
#: Shared by :meth:`DiscoveryEngine.discover` and
#: :class:`~repro.lake.engine.LakeDiscoveryEngine`.
DEFAULT_MIN_CANDIDATES = 20
DEFAULT_CANDIDATE_MULTIPLIER = 5

#: Default column-score threshold of the unionability measure, shared by
#: :class:`PairScorer` and both discovery engines so the three defaults can
#: never drift apart.
DEFAULT_UNION_THRESHOLD = 0.55


class DatasetRepository:
    """A named collection of candidate tables (an in-memory "data lake").

    Iteration order is deterministic: tables are yielded in insertion order
    (re-adding an existing name keeps its original position).
    """

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: dict[str, Table] = {}
        for table in tables:
            self.add(table)

    def add(self, table: Table, overwrite: bool = True) -> None:
        """Register a table under its own name.

        Parameters
        ----------
        table:
            The table to register.
        overwrite:
            When True (default) a table with the same name is silently
            replaced (keeping its position in the iteration order).  When
            False a name collision raises ``ValueError`` instead — use this
            to catch accidental double-registration in lake builds.
        """
        if not overwrite and table.name in self._tables:
            raise ValueError(f"repository already contains a table named {table.name!r}")
        self._tables[table.name] = table

    def remove(self, name: str) -> None:
        """Remove a table; missing names are ignored."""
        self._tables.pop(name, None)

    def get(self, name: str) -> Optional[Table]:
        """Return the table called *name* or ``None``."""
        return self._tables.get(name)

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        """Names of all registered tables."""
        return list(self._tables)


@dataclass(frozen=True)
class DiscoveryResult:
    """One candidate table scored against the query."""

    table_name: str
    scores: RelatednessScores
    matches: MatchResult

    @property
    def joinability(self) -> float:
        return self.scores.joinability

    @property
    def unionability(self) -> float:
        return self.scores.unionability


def mode_score(result: DiscoveryResult, mode: str) -> float:
    """The scalar a *mode* ranks by — the value the cascade cutoff tracks."""
    if mode == "joinable":
        return result.joinability
    if mode == "unionable":
        return result.unionability
    if mode == "combined":
        return result.scores.combined()
    raise ValueError(f"unknown discovery mode {mode!r}")


class _TopKCutoff:
    """Min-heap of the k best exact mode-scores seen so far.

    Once *k* scores are in, :attr:`value` is the running k-th best: any
    candidate whose admissible bound is **strictly** below it cannot enter
    the top k (its true score would rank strictly below k already-scored
    candidates, regardless of name tie-breaks).  The k-th best of any
    subset of the exact scores is a lower bound of the final k-th best —
    scoring more candidates can only raise it — so a stale cutoff is
    always safe, merely less aggressive.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: Optional[int]) -> None:
        self.k = k
        self._heap: list[float] = []

    @property
    def value(self) -> Optional[float]:
        if self.k is not None and len(self._heap) >= self.k:
            return self._heap[0]
        return None

    def observe(self, score: float) -> bool:
        """Fold one exact score in; True when the cutoff value tightened."""
        if self.k is None:
            return False
        before = self.value
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, score)
        elif score > self._heap[0]:
            heapq.heapreplace(self._heap, score)
        else:
            return False
        after = self.value
        return after is not None and (before is None or after > before)


def sort_discovery_results(results: list[DiscoveryResult], mode: str) -> None:
    """Sort *results* in place by the ranking criterion of *mode*.

    Shared by the brute-force and the index-accelerated engines so both
    produce identical orderings (descending score, ties broken by name).
    """
    if mode == "joinable":
        results.sort(key=lambda r: (-r.joinability, r.table_name))
    elif mode == "unionable":
        results.sort(key=lambda r: (-r.unionability, r.table_name))
    elif mode == "combined":
        results.sort(key=lambda r: (-r.scores.combined(), r.table_name))
    else:
        raise ValueError(f"unknown discovery mode {mode!r}")



@dataclass
class PairScorer:
    """Scores one (query, candidate) pair; the shared rerank unit.

    Both discovery engines delegate pair scoring here so their rankings can
    never drift.
    """

    matcher: BaseMatcher
    union_threshold: float = DEFAULT_UNION_THRESHOLD

    def score_prepared(
        self, query: PreparedTable, candidate: Union[Table, PreparedTable]
    ) -> DiscoveryResult:
        """Match a *prepared* query against one candidate table.

        The candidate goes to the matcher as it came: ``match_prepared``
        itself prepares a raw table and re-prepares a foreign payload.
        """
        matches = self.matcher.match_prepared(query, candidate)
        scores = relatedness(matches, query.header, threshold=self.union_threshold)
        return DiscoveryResult(table_name=candidate.name, scores=scores, matches=matches)

    def score_pair(self, query: Table, candidate: Table) -> DiscoveryResult:
        """Match a raw query against one candidate (prepares the query too)."""
        return self.score_prepared(self.matcher.prepare(query), candidate)


class RerankPool:
    """A persistent process pool for whole tasks, such as experiment runs.

    :class:`~repro.experiments.runner.ExperimentRunner` fans the
    (configuration x pair) runs of a grid sweep out over it, one task per
    run.  ``ProcessPoolExecutor`` costs a spawn per pool plus an
    initializer run per worker; the pool keeps one executor alive across
    :meth:`map` calls so a sweep pays that once.  A discovery query never
    uses it: every ranking is scored in the process that asked.

    The pool is lazy (no processes until the first task) and self-healing:
    after a :class:`BrokenProcessPool` (a worker died) :meth:`close`
    discards the executor, and :meth:`map` retries its batch once on a
    fresh one.

    Workers are **spawned, not forked**: SQLite database state must never
    cross a ``fork()`` — a forked child inherits the parent connections'
    file descriptors and in-process lock bookkeeping, which silently
    corrupts any connection the child then opens to the same files.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
        #: How many executors this pool has spawned (observability: a
        #: sweep with no worker deaths should see this stay at 1).
        self.spawn_count = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        """The resolved worker count."""
        return self.max_workers or os.cpu_count() or 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            self.spawn_count += 1
        return self._executor

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Run *fn* over *tasks* on the warm workers, in order."""
        tasks = list(tasks)
        try:
            return list(self._ensure_executor().map(fn, tasks))
        except BrokenProcessPool:
            # A worker crashed (OOM, hard kill): heal the pool and give the
            # batch one more chance before surfacing the failure.
            logger.warning(
                "rerank pool broke (a worker died); respawning and retrying the batch"
            )
            telemetry.count("rerank_pool.respawns")
            self.close()
            return list(self._ensure_executor().map(fn, tasks))

    def close(self) -> None:
        """Shut the executor down; the next task spawns a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "RerankPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# the rerank plan
# --------------------------------------------------------------------- #

#: What a resolver hands back for one batch of names: the candidates it
#: could produce (input order, unresolvable names omitted) and how many of
#: them came straight from a prepared store.
Resolved = tuple[list[Union[Table, PreparedTable]], int]

#: ``resolve(names, matcher) -> Resolved``.
Resolver = Callable[[Sequence[str], BaseMatcher], Resolved]


@dataclass
class RerankOutcome:
    """Everything one :func:`prune_then_rerank` call has to report."""

    #: The ranking (sorted for the mode, truncated to ``top_k``).
    results: list[DiscoveryResult] = field(default_factory=list)
    #: Candidates the matcher actually scored (before top-k truncation).
    scored: int = 0
    #: Candidates whose admissible bound fell below the top-k cutoff.
    skipped: int = 0
    #: Candidates served straight from a prepared store.
    store_hits: int = 0
    #: Times the running top-k cutoff tightened as exact scores came in.
    cutoff_updates: int = 0
    #: Whether the budget expired before every surviving candidate was
    #: scored: the ranking is the best-effort top-k over those scored so far
    #: (possibly empty), never a wrong ordering of them.
    partial: bool = False


def prune_then_rerank(
    query: Table,
    candidate_names: Iterable[str],
    resolve: Resolver,
    scorer: PairScorer,
    mode: str = "joinable",
    top_k: Optional[int] = None,
    *,
    prepared_cache: Optional[PreparedProvider] = None,
    signals: Optional[Mapping[str, CandidateSignals]] = None,
    budget_ms: Optional[float] = None,
) -> RerankOutcome:
    """The discovery core shared by every engine: one inline rerank plan.

    Parameters
    ----------
    query:
        The input table (prepared exactly once for the whole rerank).
    candidate_names:
        Pruned candidate table names — the whole repository for brute-force
        search, an LSH shortlist for indexed search.  The query's own name
        is always skipped.
    resolve:
        The :data:`Resolver` turning a batch of names into tables
        (repository lookup, CSV read...) or directly into
        :class:`PreparedTable` payloads (e.g. the lake engine's persistent
        prepared-candidate store), which skips the prepare stage for those
        candidates.  Names it cannot resolve are dropped from the ranking.
    scorer:
        The pair scorer (matcher + unionability threshold).
    mode:
        ``"joinable"``, ``"unionable"`` or ``"combined"``.
    top_k:
        Optionally truncate the final ranking.
    prepared_cache:
        Optional :class:`~repro.discovery.prepared.PreparedProvider` (a
        :class:`~repro.discovery.prepared.PreparedTableCache` or a
        :class:`~repro.discovery.prepared.PreparedStore`).
        The query's prepared table — and every raw candidate's — is served
        from / written through it.
    signals:
        Stage-1 evidence per candidate name (see
        :mod:`repro.discovery.cascade`).  The matcher lifts it to
        ranking-score bounds: candidates are scored best-bound-first and —
        when the matcher declares its bounds admissible — skipped outright
        once their bound falls below the running top-k cutoff.  ``None``
        (or a name absent from it) means a ``+inf`` bound: shortlist order,
        never skipped.  Without a budget the ranking is identical with and
        without signals (admissibility guarantees skips cannot evict a true
        top-k member; re-ordering cannot change the final sort).
    budget_ms:
        Anytime budget for the scoring stage; when it runs out, scoring
        stops and the outcome is flagged ``partial``.
    """
    if mode not in ("joinable", "unionable", "combined"):
        raise ValueError(f"unknown discovery mode {mode!r}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    names = [name for name in candidate_names if name != query.name]
    matcher = scorer.matcher
    with telemetry.span("discovery.prepare_query", table=query.name):
        if prepared_cache is not None:
            query_prepared = prepared_cache.prepare(matcher, query)
        else:
            query_prepared = matcher.prepare(query)
    bounds: dict[str, float] = {}
    skippable = False
    if signals:
        with telemetry.span("rerank.cascade", candidates=len(names)):
            bounds, admissible = compute_ranking_bounds(
                matcher, query_prepared, signals, mode, scorer.union_threshold
            )
            skippable = admissible and top_k is not None
            names = order_by_bound(names, bounds, signals)
    items = [(name, bounds.get(name, math.inf)) for name in names]
    deadline = None
    if budget_ms is not None:
        deadline = time.perf_counter() + budget_ms / 1000.0

    def expired() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    # Nothing can skip or stop: one store round trip for the whole
    # shortlist.  Something can: resolve only what is about to be scored.
    batch = 1 if skippable or deadline is not None else max(1, len(items))
    cutoff = _TopKCutoff(top_k)
    outcome = RerankOutcome()
    with telemetry.span("discovery.score", candidates=len(items)):
        for start in range(0, len(items), batch):
            if expired():
                outcome.partial = True
                break
            chunk = items[start : start + batch]
            floor = cutoff.value if skippable else None
            survivors = [
                name for name, bound in chunk if floor is None or bound >= floor
            ]
            outcome.skipped += len(chunk) - len(survivors)
            if not survivors:
                continue
            with telemetry.span("rerank.resolve_chunk", size=len(survivors)):
                candidates, store_hits = resolve(survivors, matcher)
            outcome.store_hits += store_hits
            if len(candidates) < len(survivors):
                telemetry.count(
                    "discovery.candidates_dropped", len(survivors) - len(candidates)
                )
            with telemetry.span("rerank.score_chunk", size=len(candidates)):
                for candidate in candidates:
                    if expired():
                        outcome.partial = True
                        break
                    if prepared_cache is not None and not isinstance(
                        candidate, PreparedTable
                    ):
                        candidate = prepared_cache.prepare(matcher, candidate)
                    result = scorer.score_prepared(query_prepared, candidate)
                    outcome.results.append(result)
                    if cutoff.observe(mode_score(result, mode)):
                        outcome.cutoff_updates += 1
            if outcome.partial:
                break
        outcome.scored = len(outcome.results)
        telemetry.count("discovery.candidates_scored", outcome.scored)
    if signals is not None or budget_ms is not None:
        telemetry.count("rerank.cascade.skipped", outcome.skipped)
        telemetry.count("rerank.cascade.exact", outcome.scored)
        if outcome.cutoff_updates:
            telemetry.count("rerank.cutoff_updates", outcome.cutoff_updates)
        if outcome.partial:
            telemetry.count("rerank.budget_stops")
    with telemetry.span("discovery.sort"):
        sort_discovery_results(outcome.results, mode)
    if top_k is not None:
        del outcome.results[top_k:]
    return outcome


@dataclass
class DiscoveryEngine:
    """Ranks repository tables against a query table using a column matcher.

    Attributes
    ----------
    matcher:
        Any :class:`~repro.matchers.base.BaseMatcher`.
    union_threshold:
        Column-score threshold used by the unionability measure.
    prepared_cache:
        Optional :class:`~repro.discovery.prepared.PreparedProvider`
        (typically a :class:`~repro.discovery.prepared.PreparedTableCache`)
        reusing prepared query tables across :meth:`discover` calls.
    """

    matcher: BaseMatcher
    union_threshold: float = DEFAULT_UNION_THRESHOLD
    prepared_cache: Optional[PreparedProvider] = None

    def _scorer(self) -> PairScorer:
        return PairScorer(matcher=self.matcher, union_threshold=self.union_threshold)

    def score_pair(self, query: Table, candidate: Table) -> DiscoveryResult:
        """Match *query* against one *candidate* and derive table-level scores."""
        return self._scorer().score_pair(query, candidate)

    def discover(
        self,
        query: Table,
        repository: DatasetRepository,
        mode: str = "joinable",
        top_k: Optional[int] = None,
        index: Optional[object] = None,
        candidate_limit: Optional[int] = None,
        cascade: bool = False,
        budget_ms: Optional[float] = None,
    ) -> list[DiscoveryResult]:
        """Rank repository tables against *query*.

        Parameters
        ----------
        query:
            The input table.
        repository:
            Candidate tables.
        mode:
            ``"joinable"`` (rank by joinability), ``"unionable"`` (rank by
            unionability) or ``"combined"``.
        top_k:
            Optionally truncate the ranking.
        index:
            Optional fast path: any object with a
            ``shortlist(query, limit) -> list[str]`` method (e.g. a
            :class:`~repro.lake.index.LakeIndex`).  When given, only the
            shortlisted tables are matched instead of the whole repository —
            O(candidates) instead of O(lake).
        candidate_limit:
            Shortlist size for the fast path; defaults to
            ``max(DEFAULT_MIN_CANDIDATES, DEFAULT_CANDIDATE_MULTIPLIER *
            top_k)`` so the exact matcher has slack to repair sketch-level
            ranking mistakes (unbounded when neither is set).
        cascade / budget_ms:
            Price the candidates with stage-1 signals and/or set an anytime
            budget, with the same semantics as
            :meth:`LakeDiscoveryEngine.query
            <repro.lake.engine.LakeDiscoveryEngine.query>`.  With no
            persistent sketch store, the signals are sketched from the
            repository on the fly (cheap relative to the matchers the
            bounds exist to skip).
        """
        if index is not None:
            limit = candidate_limit
            if limit is None and top_k is not None:
                limit = max(
                    DEFAULT_MIN_CANDIDATES, DEFAULT_CANDIDATE_MULTIPLIER * top_k
                )
            names = list(index.shortlist(query, limit))
        else:
            names = repository.table_names
        signals: Optional[dict[str, CandidateSignals]] = None
        if cascade:
            # Imported lazily: repro.lake imports this module at package
            # import time (cycle guard); by the time a query runs, both
            # sides are fully initialised.
            from repro.lake.profiles import SketchConfig, sketch_table

            config = SketchConfig()
            query_sketch = sketch_table(query, config, content_hash="")
            signals = {}
            for name in names:
                table = repository.get(name)
                if name == query.name or table is None or not table.columns:
                    continue
                candidate = sketch_table(table, config, content_hash="")
                signals[name] = candidate_signals(
                    query_sketch, candidate.columns, seed=config.seed
                )

        def resolve(batch: Sequence[str], _matcher: BaseMatcher) -> Resolved:
            tables = (repository.get(name) for name in batch)
            return [table for table in tables if table is not None], 0

        return prune_then_rerank(
            query,
            names,
            resolve,
            self._scorer(),
            mode=mode,
            top_k=top_k,
            prepared_cache=self.prepared_cache,
            signals=signals,
            budget_ms=budget_ms,
        ).results
