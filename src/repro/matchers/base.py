"""Core schema-matching API: matches, ranked results and the matcher base class.

Every method in the suite — Cupid, Similarity Flooding, COMA, the
distribution-based matcher, SemProp, EmbDI and the Jaccard–Levenshtein
baseline — implements :class:`BaseMatcher` and returns a :class:`MatchResult`:
a list of column-pair correspondences *ranked by matching confidence*, which
is the output format the paper argues dataset discovery needs (Section II-C).

Matching is a **two-phase protocol**:

1. :meth:`BaseMatcher.prepare` condenses one table into a
   :class:`PreparedTable` — a matcher-specific bundle of everything the
   method derives from a single table in isolation (tokenised names, column
   profiles, value sets, MinHash signatures, schema trees/graphs, ontology
   links).  Preparation touches only that table, so a prepared table can be
   cached and reused across many match calls.
2. :meth:`BaseMatcher.match_prepared` combines two prepared tables into the
   ranked :class:`MatchResult`.  Only genuinely *pairwise* work (pair EMDs,
   fixpoint propagation, joint embedding training) happens here.

:meth:`BaseMatcher.get_matches` remains the convenience entry point — it
prepares both sides and delegates to :meth:`match_prepared` — so one-off
callers are unaffected.  Dataset discovery, which matches one query table
against hundreds of candidates, prepares the query exactly once and streams
candidates through :meth:`match_prepared` (see
:func:`repro.discovery.search.prune_then_rerank`), turning O(candidates)
redundant query-side preprocessing into O(1).

:meth:`match_prepared` is the one method a matcher must implement;
overriding :meth:`prepare` as well opts into prepared reuse and caching.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.data.table import ColumnRef, Table, TableHeader

if TYPE_CHECKING:  # pragma: no cover - annotation-only (cycle guard)
    from repro.discovery.cascade import CandidateSignals

__all__ = ["MatchType", "Match", "MatchResult", "PreparedTable", "BaseMatcher"]


class MatchType(str, Enum):
    """The matcher categories of Table I of the paper."""

    ATTRIBUTE_OVERLAP = "attribute_overlap"
    VALUE_OVERLAP = "value_overlap"
    SEMANTIC_OVERLAP = "semantic_overlap"
    DATA_TYPE = "data_type"
    DISTRIBUTION = "distribution"
    EMBEDDINGS = "embeddings"


@dataclass(frozen=True, order=True)
class Match:
    """A scored correspondence between a source column and a target column."""

    score: float
    source: ColumnRef
    target: ColumnRef

    def as_pair(self) -> tuple[str, str]:
        """Return ``(source column name, target column name)``."""
        return (self.source.column, self.target.column)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source} ~ {self.target} ({self.score:.3f})"


class _Grid:
    """A ranking's two sides: position ``p`` pairs source column ``p //
    width`` with target column ``p % width``.  A side holds its columns'
    sort keys (names, or ``(table, name)`` when tables vary) and their
    refs, each built once, on first use, for every result of the grid."""

    __slots__ = ("tables", "keys", "refs", "width")

    def __init__(self, tables: tuple, keys: tuple[list, list], refs: Optional[tuple] = None):
        self.tables, self.keys, self.width = tables, keys, len(keys[1])
        self.refs = refs or ([None] * len(keys[0]), [None] * self.width)

    def key(self, position: int) -> tuple:
        """A position's tie-break key: its source and target column's keys."""
        return (self.keys[0][position // self.width], self.keys[1][position % self.width])

    def pair(self, position: int) -> tuple[ColumnRef, ColumnRef]:
        """The source and target refs of a position."""
        return self._ref(0, position // self.width), self._ref(1, position % self.width)

    def _ref(self, side: int, column: int) -> ColumnRef:
        ref = self.refs[side][column]
        if ref is None:
            ref = self.refs[side][column] = ColumnRef(self.tables[side], self.keys[side][column])
        return ref


class MatchResult:
    """A ranking of column-pair matches, best first.

    A matcher hands over the score grid it computed (:meth:`from_grid`): two
    headers and one row-major list of floats, kept as they are.  ``len``,
    :meth:`best` and :meth:`filter_threshold` read that list alone, and are
    all dataset discovery reads of most rankings (see
    :func:`repro.discovery.relatedness.relatedness`).  The order is worked
    out once, on the first access that needs it (iteration, indexing,
    :meth:`top_k`, :meth:`one_to_one`, the ``ranked_*`` views ...); a
    :class:`ColumnRef` is built once per column someone reads, and
    :class:`Match` objects exist only while someone iterates or indexes.

    The order is what it always was: descending score, ties broken
    deterministically by source table, source column, target table and
    target column name, so experiments are reproducible.  Ordering is
    idempotent — two threads reading one result can at worst both do it.
    """

    def __init__(self, matches: Iterable[Match] = ()) -> None:
        matches = list(matches)
        sources = list(dict.fromkeys(match.source for match in matches))
        targets = list(dict.fromkeys(match.target for match in matches))
        rows = {ref: i * len(targets) for i, ref in enumerate(sources)}
        columns = {ref: j for j, ref in enumerate(targets)}
        keys = tuple([(ref.table, ref.column) for ref in refs] for refs in (sources, targets))
        self._grid = _Grid((None, None), keys, (sources, targets))
        # One attribute, replaced whole: (scores, their grid positions, whether
        # they are in ranking order yet), so no reader sees a mix of orders.
        self._state: tuple[list[float], Sequence[int], bool] = (
            [match.score for match in matches],
            [rows[match.source] + columns[match.target] for match in matches],
            False,
        )

    @classmethod
    def _of(cls, grid: _Grid, scores: list[float], positions: Sequence[int], ranked: bool):
        """A result over *grid* (*ranked*: already in ranking order)."""
        result = cls.__new__(cls)
        result._grid, result._state = grid, (scores, positions, ranked)
        return result

    @classmethod
    def from_grid(
        cls,
        source: Union[Table, TableHeader],
        target: Union[Table, TableHeader],
        scores: list[float],
        positions: Optional[list[int]] = None,
    ) -> "MatchResult":
        """The ranking of a matcher's score grid over two headers (a table
        works too): one Python float per (source column, target column)
        pair, row-major — or, with *positions*, the scores of only the pairs
        at those row-major positions.  Every pair given is kept, zero
        scores included: Valentine evaluates complete rankings.
        """
        if positions is None:
            if len(scores) != len(source.column_names) * len(target.column_names):
                raise ValueError(f"{source.name!r} x {target.name!r} needs a score per pair")
            positions = range(len(scores))
        names = (list(source.column_names), list(target.column_names))
        return cls._of(_Grid((source.name, target.name), names), scores, positions, False)

    def _ranking(self) -> tuple[list[float], Sequence[int]]:
        """The scores and their positions in ranking order (ordered on the first call)."""
        scores, positions, ranked = self._state
        if not ranked:
            keys = [(-score, *self._grid.key(p)) for score, p in zip(scores, positions)]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._state = ([scores[k] for k in order], [positions[k] for k in order], True)
        return self._state[:2]

    # ------------------------------------------------------------------ #
    # sequence behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._state[0])

    def __iter__(self) -> Iterator[Match]:
        pair = self._grid.pair
        return (Match(score, *pair(position)) for score, position in zip(*self._ranking()))

    def __getitem__(self, index: int) -> Match:
        scores, positions = self._ranking()
        return Match(scores[index], *self._grid.pair(positions[index]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult(n={len(self)})"

    @property
    def matches(self) -> list[Match]:
        """The ranked matches (a fresh list)."""
        return list(self)

    def best(self) -> Optional[Match]:
        """The top-ranked match — ``self[0]`` — or ``None`` when empty.

        Python's ``max`` of the scores, ties broken by the ranking's name
        order; nothing is sorted, and only the winner's two refs are built.
        """
        scores, positions, ranked = self._state
        if not scores or ranked:
            return Match(scores[0], *self._grid.pair(positions[0])) if scores else None
        high = max(scores)  # a NaN only from the front: then no score equals it
        unique = scores.count(high) == 1  # the usual case: no tie to break
        ties = [scores.index(high)] if unique else [k for k, s in enumerate(scores) if s == high] or [0]
        top = min(ties, key=lambda k: self._grid.key(positions[k]))
        return Match(scores[top], *self._grid.pair(positions[top]))

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def top_k(self, k: int) -> "MatchResult":
        """The first *k* matches of the ranking."""
        k = max(k, 0)
        scores, positions = self._ranking()
        return self._of(self._grid, scores[:k], positions[:k], True)

    def ranked_pairs(self) -> list[tuple[str, str]]:
        """Column-name pairs in ranking order."""
        return [match.as_pair() for match in self]

    def scores(self) -> dict[tuple[str, str], float]:
        """``{(source column, target column): score}`` (best score per pair)."""
        result: dict[tuple[str, str], float] = {}
        for match in self:
            result.setdefault(match.as_pair(), match.score)
        return result

    def filter_threshold(self, threshold: float) -> "MatchResult":
        """Matches with ``score >= threshold``.

        Filtering commutes with the ranking order, so a result that has not
        been ordered yet stays that way and only the survivors ever are.
        """
        scores, positions, ranked = self._state
        keep = [k for k, score in enumerate(scores) if score >= threshold]
        return self._of(self._grid, [scores[k] for k in keep], [positions[k] for k in keep], ranked)

    def one_to_one(self) -> "MatchResult":
        """Greedy 1-1 filtering of the ranking (each column used at most once)."""
        scores, positions = self._ranking()
        width = self._grid.width
        used_sources: set[int] = set()
        used_targets: set[int] = set()
        keep: list[int] = []
        for k, position in enumerate(positions):
            source, target = divmod(position, width)
            if source in used_sources or target in used_targets:
                continue
            keep.append(k)
            used_sources.add(source)
            used_targets.add(target)
        return self._of(self._grid, [scores[k] for k in keep], [positions[k] for k in keep], True)


@dataclass(frozen=True)
class PreparedTable:
    """A table's header plus everything a specific matcher precomputes from it.

    Attributes
    ----------
    fingerprint:
        The :meth:`BaseMatcher.fingerprint` of the matcher configuration that
        produced the payload.  A matcher only trusts payloads carrying its
        own fingerprint; anything else is transparently re-prepared.
    payload:
        Matcher-specific artifacts (value sets, signatures, schema trees...)
        — everything :meth:`BaseMatcher.match_prepared` reads besides the
        header.  Storable only when made of the values the prepared
        store's codec allows (:mod:`repro.discovery.prepared_codec`).
    table:
        The underlying table where one exists — a table just prepared, or a
        query — and ``None`` for a payload decoded from a store row, which
        carries no cells.
    header:
        The table's :class:`~repro.data.table.TableHeader` (name, typed
        columns, row count); taken from *table* when not given.
    """

    fingerprint: str
    payload: Mapping[str, object] = field(default_factory=dict)
    table: Optional[Table] = None
    header: TableHeader = None  # type: ignore[assignment]  # set from table

    def __post_init__(self) -> None:
        if self.header is None:
            if self.table is None:
                raise ValueError("a prepared table needs its table or its header")
            object.__setattr__(self, "header", TableHeader.of(self.table))

    @property
    def name(self) -> str:
        """Name of the underlying table."""
        return self.header.name


class BaseMatcher(abc.ABC):
    """Abstract base class of every schema matching method in the suite.

    Subclasses implement the two-phase protocol — :meth:`match_prepared`
    and, when they have per-table work, :meth:`prepare`; class attributes
    describe the method for the registry and the Table I coverage report.
    """

    #: Human-readable method name (e.g. ``"Cupid"``).
    name: str = "base"
    #: Short code used in the paper's figures (e.g. ``"CU"``).
    code: str = "??"
    #: The match types of Table I this method covers.
    match_types: tuple[MatchType, ...] = ()
    #: Whether the method reads instance values (runtime accounting); the lake
    #: scores one that does not from its candidates' sketches, reading no CSV.
    uses_instances: bool = False
    #: Whether the method reads schema-level information.
    uses_schema: bool = True

    # ------------------------------------------------------------------ #
    # the two-phase protocol
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable identity of this matcher's *prepared artifacts*.

        Keys prepared payloads, the
        :class:`~repro.discovery.prepared.PreparedTableCache` and the
        persistent :class:`~repro.discovery.prepared.PreparedStore`: two
        matcher instances with the same class, the same
        :meth:`prepare_parameters` and the same :meth:`_fingerprint_extras`
        share prepared tables; changing any parameter that shapes
        :meth:`prepare` output produces a different fingerprint.  Parameters
        that only affect the pairwise stage (e.g. an acceptance threshold
        applied in :meth:`match_prepared`) are deliberately excluded, so a
        parameter sweep over them reuses one prepared payload per table.
        Memoised under its :meth:`_fingerprint_extras` (a mutated ontology
        or thesaurus still changes it); any attribute assignment drops it.
        """
        extras = self._fingerprint_extras()
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is not None and memo[0] == extras:
            return memo[1]
        cls = type(self)
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.prepare_parameters().items())
        )
        suffix = f" deps={extras!r}" if extras else ""
        fingerprint = f"{cls.__module__}.{cls.__qualname__}({params}){suffix}"
        self.__dict__["_fingerprint_memo"] = (extras, fingerprint)
        return fingerprint

    def __setattr__(self, name: str, value: object) -> None:
        self.__dict__.pop("_fingerprint_memo", None)
        super().__setattr__(name, value)

    def prepare_parameters(self) -> dict[str, object]:
        """The subset of :meth:`parameters` that shapes :meth:`prepare` output.

        The default is *all* parameters — always safe, never maximally
        shared.  Matchers whose prepare stage provably ignores some
        parameters override this to exclude them, which lets the prepared
        caches and the experiment runner reuse payloads across a parameter
        sweep.  Never exclude a parameter the prepare stage reads: a stale
        payload would silently corrupt matches.
        """
        return self.parameters()

    def _fingerprint_extras(self) -> tuple[object, ...]:
        """Identity tokens of dependencies :meth:`parameters` cannot see.

        :meth:`parameters` only exposes public attributes, so matchers whose
        prepared artifacts depend on privately-stored collaborators (a
        custom thesaurus, ontology or embedding model) override this to
        return stable, content-based tokens for them — otherwise two
        configurations differing only in such a dependency would share cache
        entries.  Tokens must be stable across processes (no ``id()``): a
        persistent prepared store is read by processes other than the one
        that wrote it.
        """
        return ()

    def prepare(self, table: Table) -> PreparedTable:
        """Precompute this matcher's single-table artifacts for *table*.

        The default prepares nothing (the payload is empty); matchers with
        per-table work override this and stash their artifacts in the
        payload.
        """
        return PreparedTable(table=table, fingerprint=self.fingerprint())

    # ------------------------------------------------------------------ #
    # rerank-cascade hooks
    # ------------------------------------------------------------------ #
    def score_ceiling(self, prepared_query: PreparedTable) -> float:
        """The most any column-pair score of this *prepared* query can
        reach, against any candidate, or ``+inf`` when the matcher cannot
        bound it — then :meth:`score_bound` is ``+inf`` for every
        candidate.  The lake engine computes stage-1 signals only for a
        finite ceiling that a ranking score can stay below.  The default,
        like ``score_bound``'s, is ``+inf``."""
        return math.inf

    def score_bound(
        self, prepared_query: PreparedTable, signals: "CandidateSignals"
    ) -> float:
        """Upper bound on any column-pair score against this candidate.

        Stage 1 of the rerank cascade calls this once per shortlisted
        candidate with the *prepared* query table and the candidate's cheap
        store-resident evidence (a
        :class:`~repro.discovery.cascade.CandidateSignals`: sketch-level
        MinHash Jaccard, signature geometry, value counts).

        One rule: a finite value is a *sound* bound.  For every column
        pair ``(q, c)``::

            match_prepared(prepared_query, prepare(candidate))
                .score of (q, c)  <=  score_bound(prepared_query, signals)

        The cascade skips the expensive :meth:`match_prepared` for
        candidates whose bound falls strictly below the current top-k
        cutoff, so the final ranking is provably identical to scoring
        everything.  An estimate that the exact score may exceed is not a
        bound and must not be returned.

        The default is ``+inf`` — "I cannot bound this" — so a matcher that
        does not override it is always scored exactly.  An override returns
        ``+inf`` itself wherever :meth:`score_ceiling` is, and for any
        candidate where its argument breaks (mismatched signature widths or
        seeds, value sampling that could truncate).
        """
        return math.inf

    @abc.abstractmethod
    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Compute the ranked matches from two prepared tables.

        Implementations open with :meth:`_ensure_prepared` on both sides —
        callers (the rerank's :func:`~repro.discovery.search.score_prepared`
        included) may hand over a raw table or a payload prepared under
        another fingerprint and rely on that one guard — and end in
        :meth:`MatchResult.from_grid` over the score grid they computed.
        """

    def get_matches(self, source: Table, target: Table) -> MatchResult:
        """Compute the ranked matches between *source* and *target* columns.

        Prepare both sides, then match.  Discovery callers should instead
        prepare the query once and call :meth:`match_prepared` per
        candidate.
        """
        return self.match_prepared(self.prepare(source), self.prepare(target))

    def _ensure_prepared(self, table: Union[Table, PreparedTable]) -> PreparedTable:
        """Coerce *table* into a PreparedTable this matcher can consume.

        Raw tables are prepared on the spot; prepared tables carrying a
        foreign fingerprint (another matcher, or the same matcher under a
        different configuration) are re-prepared from their underlying table
        so a stale payload can never corrupt a match — and refused with
        ``ValueError`` when they hold no table to re-prepare from.
        """
        if isinstance(table, PreparedTable):
            if table.fingerprint == self.fingerprint():
                return table
            if table.table is None:
                raise ValueError(
                    f"prepared table {table.name!r} carries a foreign payload "
                    f"({table.fingerprint[:40]!r}) and no cells to re-prepare from"
                )
            table = table.table
        return self.prepare(table)

    def parameters(self) -> dict[str, object]:
        """Return the method's current parameter values (for result records).

        The default implementation exposes public, non-callable instance
        attributes, which matches how the concrete matchers store their
        configuration.
        """
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and not callable(value)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.parameters().items()))
        return f"{type(self).__name__}({params})"
