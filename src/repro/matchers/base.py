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

from repro.data.table import ColumnRef, Table

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


class MatchResult:
    """An ordered (descending score) list of :class:`Match` objects.

    The class encapsulates the ranking semantics: ties are broken
    deterministically by column names so that experiments are reproducible.
    """

    def __init__(self, matches: Iterable[Match] = ()) -> None:
        self._matches = sorted(
            matches,
            key=lambda m: (-m.score, m.source.table, m.source.column, m.target.table, m.target.column),
        )

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
        matches = [
            Match(score=float(score), source=source, target=target)
            for (source, target), score in scores.items()
            if keep_zero or score > threshold
        ]
        return cls(matches)

    # ------------------------------------------------------------------ #
    # sequence behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self) -> Iterator[Match]:
        return iter(self._matches)

    def __getitem__(self, index: int) -> Match:
        return self._matches[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult(n={len(self)})"

    @property
    def matches(self) -> list[Match]:
        """The ranked matches (copy)."""
        return list(self._matches)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def top_k(self, k: int) -> "MatchResult":
        """The first *k* matches of the ranking."""
        return MatchResult(self._matches[: max(k, 0)])

    def ranked_pairs(self) -> list[tuple[str, str]]:
        """Column-name pairs in ranking order."""
        return [match.as_pair() for match in self._matches]

    def ranked_ref_pairs(self) -> list[tuple[ColumnRef, ColumnRef]]:
        """Fully qualified ref pairs in ranking order."""
        return [match.as_refs() for match in self._matches]

    def scores(self) -> dict[tuple[str, str], float]:
        """``{(source column, target column): score}`` (best score per pair)."""
        result: dict[tuple[str, str], float] = {}
        for match in self._matches:
            pair = match.as_pair()
            if pair not in result:
                result[pair] = match.score
        return result

    def filter_threshold(self, threshold: float) -> "MatchResult":
        """Matches with ``score >= threshold``."""
        return MatchResult(m for m in self._matches if m.score >= threshold)

    def one_to_one(self) -> "MatchResult":
        """Greedy 1-1 filtering of the ranking (each column used at most once)."""
        used_sources: set[ColumnRef] = set()
        used_targets: set[ColumnRef] = set()
        kept: list[Match] = []
        for match in self._matches:
            if match.source in used_sources or match.target in used_targets:
                continue
            kept.append(match)
            used_sources.add(match.source)
            used_targets.add(match.target)
        return MatchResult(kept)

    def to_records(self) -> list[dict[str, object]]:
        """Serialise to a list of plain dictionaries (for JSON/CSV export)."""
        return [
            {
                "source_table": match.source.table,
                "source_column": match.source.column,
                "target_table": match.target.table,
                "target_column": match.target.column,
                "score": match.score,
            }
            for match in self._matches
        ]


@dataclass(frozen=True)
class PreparedTable:
    """One table plus everything a specific matcher precomputes from it.

    Attributes
    ----------
    table:
        The underlying table (always available, so matchers whose pairwise
        stage needs raw values — e.g. EmbDI's joint embedding training — can
        reach them).
    fingerprint:
        The :meth:`BaseMatcher.fingerprint` of the matcher configuration that
        produced the payload.  A matcher only trusts payloads carrying its
        own fingerprint; anything else is transparently re-prepared.
    payload:
        Matcher-specific artifacts (value sets, signatures, schema trees...).
        Must stay picklable: prepared query tables are shipped to rerank
        worker processes.
    """

    table: Table
    fingerprint: str
    payload: Mapping[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Name of the underlying table."""
        return self.table.name


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
        entries.  Tokens must be stable across processes (no ``id()``): the
        parallel rerank recomputes fingerprints in worker processes.
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
        """Compute the ranked matches from two prepared tables."""

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
        so a stale payload can never corrupt a match.
        """
        if isinstance(table, PreparedTable):
            if table.fingerprint == self.fingerprint():
                return table
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
