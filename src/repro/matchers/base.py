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

    def as_refs(self) -> tuple[ColumnRef, ColumnRef]:
        """Return ``(source ref, target ref)``."""
        return (self.source, self.target)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source} ~ {self.target} ({self.score:.3f})"


def _name_order(source: ColumnRef, target: ColumnRef) -> tuple[str, str, str, str]:
    """The ranking's tie-break among equal scores."""
    return (source.table, source.column, target.table, target.column)


def _take(
    scores: list[float], sources: list[ColumnRef], targets: list[ColumnRef], rows: Sequence[int]
) -> tuple[list[float], list[ColumnRef], list[ColumnRef]]:
    """The given positions of three parallel columns, in the given order."""
    return (
        [scores[i] for i in rows],
        [sources[i] for i in rows],
        [targets[i] for i in rows],
    )


class MatchResult:
    """A ranking of column-pair matches, best first.

    The ranking is held as three parallel columns — scores, source refs,
    target refs — not as a list of objects.  Building a result neither sorts
    nor allocates per pair: the ranking order is worked out once, on the
    first access that needs it (iteration, indexing, :meth:`top_k`,
    :meth:`one_to_one`, the ``ranked_*`` views ...), and :class:`Match`
    objects exist only while someone iterates or indexes.  ``len``,
    :meth:`best` and :meth:`filter_threshold` never order anything, and they
    are all that dataset discovery reads of most rankings (see
    :func:`repro.discovery.relatedness.relatedness`).

    The order is what it always was: descending score, ties broken
    deterministically by source table, source column, target table and
    target column name, so experiments are reproducible.  Ordering is
    idempotent — two threads reading one result can at worst both do it.
    """

    def __init__(self, matches: Iterable[Match] = ()) -> None:
        matches = list(matches)
        # One attribute, replaced whole: (scores, sources, targets, whether
        # they are in ranking order yet).  A concurrent reader sees either
        # the unordered or the ordered columns, never a mix.
        self._state: tuple[list[float], list[ColumnRef], list[ColumnRef], bool] = (
            [match.score for match in matches],
            [match.source for match in matches],
            [match.target for match in matches],
            False,
        )

    @classmethod
    def _of(
        cls,
        scores: list[float],
        sources: list[ColumnRef],
        targets: list[ColumnRef],
        ranked: bool,
    ) -> "MatchResult":
        """A result over the given columns (*ranked*: already in ranking order)."""
        result = cls.__new__(cls)
        result._state = (scores, sources, targets, ranked)
        return result

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[tuple[ColumnRef, ColumnRef], float],
        threshold: float = 0.0,
        keep_zero: bool = False,
    ) -> "MatchResult":
        """Build a result from a ``{(source, target): score}`` mapping.

        Pairs scoring at or below *threshold* are dropped unless *keep_zero*
        is set (some matchers deliberately emit complete rankings).
        """
        kept = {
            pair: score for pair, score in scores.items() if keep_zero or score > threshold
        }
        return cls._of(
            [float(score) for score in kept.values()],
            [source for source, _ in kept],
            [target for _, target in kept],
            ranked=False,
        )

    @classmethod
    def from_column_scores(
        cls,
        source: Union[Table, TableHeader],
        target: Union[Table, TableHeader],
        scores: Mapping[tuple[str, str], float],
    ) -> "MatchResult":
        """Build a result from ``{(source column, target column): score}`` names.

        How every matcher hands back its ranking, from the two tables'
        headers (a table works too).  Each column's ref is built once, here,
        not twice per scored pair, and every pair in *scores* is kept, zero
        scores included: Valentine evaluates complete rankings, not
        thresholded ones.
        """
        source_refs = {name: ColumnRef(source.name, name) for name in source.column_names}
        target_refs = {name: ColumnRef(target.name, name) for name in target.column_names}
        return cls._of(
            [float(score) for score in scores.values()],
            [source_refs[source_name] for source_name, _ in scores],
            [target_refs[target_name] for _, target_name in scores],
            ranked=False,
        )

    def _ranking(self) -> tuple[list[float], list[ColumnRef], list[ColumnRef]]:
        """The three columns in ranking order (ordered on the first call)."""
        scores, sources, targets, ranked = self._state
        if not ranked:
            keys = [
                (-score, *_name_order(source, target))
                for score, source, target in zip(scores, sources, targets)
            ]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._state = (*_take(scores, sources, targets, order), True)
        return self._state[:3]

    # ------------------------------------------------------------------ #
    # sequence behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._state[0])

    def __iter__(self) -> Iterator[Match]:
        return map(Match, *self._ranking())

    def __getitem__(self, index: int) -> Match:
        scores, sources, targets = self._ranking()
        return Match(scores[index], sources[index], targets[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult(n={len(self)})"

    @property
    def matches(self) -> list[Match]:
        """The ranked matches (a fresh list)."""
        return list(self)

    def best(self) -> Optional[Match]:
        """The top-ranked match — ``self[0]`` — or ``None`` when empty.

        Found as the maximum score, ties broken by the ranking's name order;
        nothing is sorted.
        """
        scores, sources, targets, ranked = self._state
        if not scores:
            return None
        if ranked:
            top = 0
        else:
            high = max(scores)
            top = min(
                (i for i, score in enumerate(scores) if score == high),
                key=lambda i: _name_order(sources[i], targets[i]),
            )
        return Match(scores[top], sources[top], targets[top])

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def top_k(self, k: int) -> "MatchResult":
        """The first *k* matches of the ranking."""
        k = max(k, 0)
        scores, sources, targets = self._ranking()
        return self._of(scores[:k], sources[:k], targets[:k], ranked=True)

    def ranked_pairs(self) -> list[tuple[str, str]]:
        """Column-name pairs in ranking order."""
        _, sources, targets = self._ranking()
        return [(source.column, target.column) for source, target in zip(sources, targets)]

    def ranked_ref_pairs(self) -> list[tuple[ColumnRef, ColumnRef]]:
        """Fully qualified ref pairs in ranking order."""
        _, sources, targets = self._ranking()
        return list(zip(sources, targets))

    def scores(self) -> dict[tuple[str, str], float]:
        """``{(source column, target column): score}`` (best score per pair)."""
        result: dict[tuple[str, str], float] = {}
        for score, source, target in zip(*self._ranking()):
            result.setdefault((source.column, target.column), score)
        return result

    def filter_threshold(self, threshold: float) -> "MatchResult":
        """Matches with ``score >= threshold``.

        Filtering commutes with the ranking order, so a result that has not
        been ordered yet stays that way and only the survivors ever are.
        """
        scores, sources, targets, ranked = self._state
        keep = [i for i, score in enumerate(scores) if score >= threshold]
        return self._of(*_take(scores, sources, targets, keep), ranked)

    def one_to_one(self) -> "MatchResult":
        """Greedy 1-1 filtering of the ranking (each column used at most once)."""
        scores, sources, targets = self._ranking()
        used_sources: set[ColumnRef] = set()
        used_targets: set[ColumnRef] = set()
        keep: list[int] = []
        for i, (source, target) in enumerate(zip(sources, targets)):
            if source in used_sources or target in used_targets:
                continue
            keep.append(i)
            used_sources.add(source)
            used_targets.add(target)
        return self._of(*_take(scores, sources, targets, keep), ranked=True)

    def to_records(self) -> list[dict[str, object]]:
        """Serialise to a list of plain dictionaries (for JSON/CSV export)."""
        return [
            {
                "source_table": source.table,
                "source_column": source.column,
                "target_table": target.table,
                "target_column": target.column,
                "score": score,
            }
            for score, source, target in zip(*self._ranking())
        ]


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
    #: Whether the method reads instance values (affects runtime accounting).
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
        """
        cls = type(self)
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.prepare_parameters().items())
        )
        extras = self._fingerprint_extras()
        suffix = f" deps={extras!r}" if extras else ""
        return f"{cls.__module__}.{cls.__qualname__}({params}){suffix}"

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
    def score_bound(
        self, prepared_query: PreparedTable, signals: "CandidateSignals"
    ) -> float:
        """Upper bound on any column-pair score against this candidate.

        Stage 1 of the rerank cascade calls this once per shortlisted
        candidate with the *prepared* query table and the candidate's cheap
        store-resident evidence (a
        :class:`~repro.discovery.cascade.CandidateSignals`: sketch-level
        MinHash Jaccard, histogram distance, column counts).  The returned
        value must satisfy, for every column pair ``(q, c)``::

            match_prepared(prepared_query, prepare(candidate))
                .score of (q, c)  <=  score_bound(prepared_query, signals)

        whenever :meth:`bounds_admissible` is ``True`` — the cascade then
        skips the expensive :meth:`match_prepared` for candidates whose
        bound falls strictly below the current top-k cutoff, and the final
        ranking is provably identical to scoring everything.

        A matcher that can only *estimate* (its exact score may exceed the
        estimate) should still override this but leave
        :meth:`bounds_admissible` at ``False``: the value is then used
        purely to schedule scoring best-bound-first (which tightens the
        cutoff early and feeds the anytime budget), never to skip.

        The conservative default is ``+inf`` — "I cannot bound this" — so
        third-party matchers are always scored exactly.  Overrides should
        return ``+inf`` themselves for any configuration where their
        calibration assumptions break (mismatched signature widths or
        seeds, value sampling that could truncate, semantic evidence the
        signals cannot see).
        """
        return math.inf

    def bounds_admissible(self) -> bool:
        """Whether :meth:`score_bound` is a *sound* upper bound.

        Only an admissible bound may cause the rerank cascade to skip a
        candidate; inadmissible bounds (the default) still order the work
        but every candidate is scored exactly.  Override to return ``True``
        only when :meth:`score_bound` provably dominates every pair score
        this matcher can emit (returning ``+inf`` for configurations it
        cannot vouch for).
        """
        return False

    @abc.abstractmethod
    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Compute the ranked matches from two prepared tables.

        Implementations open with :meth:`_ensure_prepared` on both sides —
        callers (the rerank's :class:`~repro.discovery.search.PairScorer`
        included) may hand over a raw table or a payload prepared under
        another fingerprint and rely on that one guard — and end in
        :meth:`MatchResult.from_column_scores`.
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
