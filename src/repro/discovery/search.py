"""Dataset discovery over a repository of tables.

This is "Valentine as a Discovery Component" (Section II-B) turned into an
API: a :class:`DatasetRepository` holds candidate tables, and
:class:`DiscoveryEngine` ranks them against a query table by joinability or
unionability using any bundled matcher.  :meth:`DiscoveryEngine.discover`
is the reference ranking: it matches the query against every table and
sorts, sharing only the matcher and :mod:`~repro.discovery.relatedness`
with the lake engine.

:class:`~repro.lake.engine.LakeDiscoveryEngine` reranks its LSH shortlist
through one plan, :func:`prune_then_rerank`:

1. *bounds* — whatever stage-1 signals the caller supplied become
   per-candidate ranking-score upper bounds against the query the caller
   prepared (no signals: every bound is ``+inf``);
2. *order* — candidates are sorted best-bound-first (no bounds: shortlist
   order);
3. *score* — one loop in this process skips what a finite bound proves
   cannot reach the top k, resolves the rest and scores them;
4. *cutoff feedback* — every exact score tightens the running top-k cutoff
   the next skip decision reads.

*Priced versus unpriced is the signals*: they only decide how tight the
bounds are.  A finite bound is sound by contract (see
:meth:`~repro.matchers.base.BaseMatcher.score_bound`); ``+inf`` never
skips.  The bounds also decide how the loop resolves: a rerank that cannot
skip (no ``top_k``, or no finite bound) resolves the whole shortlist in one
batch (one store round trip), one that can resolves only the candidate it
is about to score.
"""

from __future__ import annotations

import heapq
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.data.table import Table
from repro.discovery.cascade import (
    CandidateSignals,
    compute_ranking_bounds,
    order_by_bound,
)
from repro.discovery.relatedness import DEFAULT_UNION_THRESHOLD, RelatednessScores, relatedness
from repro.matchers.base import BaseMatcher, MatchResult, PreparedTable
from repro.telemetry import recorder as telemetry

logger = logging.getLogger(__name__)

__all__ = [
    "DatasetRepository",
    "DiscoveryResult",
    "DiscoveryEngine",
    "RerankOutcome",
    "RerankPool",
    "prune_then_rerank",
    "score_prepared",
    "mode_score",
    "DEFAULT_MIN_CANDIDATES",
    "CANDIDATE_MULTIPLIER",
    "DEFAULT_UNION_THRESHOLD",
]

#: Shortlist slack for index-pruned discovery: an exact top-k query reranks
#: ``max(min_candidates, CANDIDATE_MULTIPLIER * k)`` sketch-level candidates
#: so the matcher can repair sketch ranking mistakes.  The minimum defaults
#: to ``DEFAULT_MIN_CANDIDATES`` on
#: :class:`~repro.lake.engine.LakeDiscoveryEngine`.
DEFAULT_MIN_CANDIDATES = 20
CANDIDATE_MULTIPLIER = 5


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
    """The scalar a *mode* ranks by: the rerank's sort key and the value its
    top-k cutoff tracks."""
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
    candidate whose (sound) bound is **strictly** below it cannot enter
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


def score_prepared(
    matcher: BaseMatcher, query: PreparedTable, candidate: Union[Table, PreparedTable]
) -> DiscoveryResult:
    """Match a *prepared* query against one candidate table: the rerank's
    unit of work.

    The candidate goes to the matcher as it came: ``match_prepared`` itself
    prepares a raw table and re-prepares a foreign payload.
    """
    matches = matcher.match_prepared(query, candidate)
    scores = relatedness(matches, query.header, threshold=DEFAULT_UNION_THRESHOLD)
    return DiscoveryResult(table_name=candidate.name, scores=scores, matches=matches)


class RerankPool:
    """A persistent process pool for whole tasks.

    Nothing in the program builds one: only lakebench's stand-alone
    ``search.pool_spawn_ms`` probe does, to time a spawn.  A discovery query
    never uses it (every ranking is scored in the process that asked), and
    the experiment runner's sweep is serial.  ``ProcessPoolExecutor`` costs
    a spawn per pool plus an initializer run per worker; the pool keeps one
    executor alive across :meth:`map` calls so a caller pays that once.

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
        #: pool with no worker deaths should see this stay at 1).
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
    #: Candidates whose finite bound fell below the top-k cutoff.
    skipped: int = 0
    #: Candidates served straight from a prepared store.
    store_hits: int = 0
    #: Times the running top-k cutoff tightened as exact scores came in.
    cutoff_updates: int = 0


def prune_then_rerank(
    query: PreparedTable,
    candidate_names: Iterable[str],
    resolve: Resolver,
    matcher: BaseMatcher,
    mode: str = "joinable",
    top_k: Optional[int] = None,
    *,
    signals: Optional[Mapping[str, CandidateSignals]] = None,
) -> RerankOutcome:
    """The lake engine's rerank: one inline plan over a shortlist.

    Parameters
    ----------
    query:
        The input table, already prepared by the caller for *matcher* (once
        for the whole rerank).
    candidate_names:
        Pruned candidate table names (an LSH shortlist).  The query's own
        name is always skipped.
    resolve:
        The :data:`Resolver` turning a batch of names into tables (a CSV
        read) or directly into :class:`PreparedTable` payloads (e.g. the
        lake engine's persistent prepared-candidate store), which skips the
        prepare stage for those candidates; the matcher prepares a raw
        table itself.  Names it cannot resolve are dropped from the ranking.
    matcher:
        The matcher every surviving candidate is scored with.
    mode:
        ``"joinable"``, ``"unionable"`` or ``"combined"``.
    top_k:
        Optionally truncate the final ranking.
    signals:
        Stage-1 evidence per candidate name (see
        :mod:`repro.discovery.cascade`).  The matcher lifts it to
        ranking-score bounds: candidates are scored best-bound-first and
        skipped outright once a finite bound falls below the running top-k
        cutoff.  ``None`` (or a name absent from it, or a matcher that
        cannot bound) means a ``+inf`` bound: never skipped.  The ranking
        is identical with and without signals (a finite bound is sound, so a
        skip cannot evict a true top-k member; re-ordering cannot change the
        final sort).  Counted as a cascade (``rerank.cascade.*``) only when
        signals are given.
    """
    if mode not in ("joinable", "unionable", "combined"):
        raise ValueError(f"unknown discovery mode {mode!r}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    names = [name for name in candidate_names if name != query.name]
    bounds: dict[str, float] = {}
    if signals:
        with telemetry.span("rerank.cascade", candidates=len(names)):
            bounds = compute_ranking_bounds(matcher, query, signals, mode)
            names = order_by_bound(names, bounds, signals)
    skippable = top_k is not None and any(map(math.isfinite, bounds.values()))
    items = [(name, bounds.get(name, math.inf)) for name in names]
    # Nothing can skip: one store round trip for the whole shortlist.
    # Something can: resolve only what is about to be scored.
    batch = 1 if skippable else max(1, len(items))
    cutoff = _TopKCutoff(top_k)
    outcome = RerankOutcome()
    with telemetry.span("discovery.score", candidates=len(items)):
        for start in range(0, len(items), batch):
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
                    result = score_prepared(matcher, query, candidate)
                    outcome.results.append(result)
                    if cutoff.observe(mode_score(result, mode)):
                        outcome.cutoff_updates += 1
        outcome.scored = len(outcome.results)
        telemetry.count("discovery.candidates_scored", outcome.scored)
    if signals is not None:
        telemetry.count("rerank.cascade.skipped", outcome.skipped)
        telemetry.count("rerank.cascade.exact", outcome.scored)
        if outcome.cutoff_updates:
            telemetry.count("rerank.cutoff_updates", outcome.cutoff_updates)
    with telemetry.span("discovery.sort"):
        outcome.results.sort(key=lambda r: (-mode_score(r, mode), r.table_name))
    if top_k is not None:
        del outcome.results[top_k:]
    return outcome


@dataclass
class DiscoveryEngine:
    """Ranks repository tables against a query table using a column matcher.

    The reference ranking every faster path is checked against: it matches
    the query against every table and sorts, with no shortlist, cache,
    bound or cutoff.

    Attributes
    ----------
    matcher:
        Any :class:`~repro.matchers.base.BaseMatcher`.
    """

    matcher: BaseMatcher

    def score_pair(self, query: Table, candidate: Table) -> DiscoveryResult:
        """Match *query* against one *candidate* and derive table-level scores."""
        matches = self.matcher.get_matches(query, candidate)
        scores = relatedness(matches, query)
        return DiscoveryResult(table_name=candidate.name, scores=scores, matches=matches)

    def discover(
        self,
        query: Table,
        repository: DatasetRepository,
        mode: str = "joinable",
        top_k: Optional[int] = None,
    ) -> list[DiscoveryResult]:
        """Rank every repository table but the query's own name against *query*.

        *mode* is ``"joinable"`` (rank by joinability), ``"unionable"``
        (rank by unionability) or ``"combined"`` (their mean); ties break by
        table name.  *top_k* optionally truncates the ranking.
        """
        if mode not in ("joinable", "unionable", "combined"):
            raise ValueError(f"unknown discovery mode {mode!r}")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        ranked = []
        for candidate in repository:
            if candidate.name == query.name:
                continue
            result = self.score_pair(query, candidate)
            join, union = result.joinability, result.unionability
            if mode == "joinable":
                score = join
            elif mode == "unionable":
                score = union
            else:
                score = 0.5 * join + 0.5 * union
            ranked.append((-score, result.table_name, result))
        ranked.sort(key=lambda entry: entry[:2])
        return [result for _, _, result in ranked[:top_k]]
