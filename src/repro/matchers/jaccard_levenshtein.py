"""The Jaccard–Levenshtein baseline matcher.

The paper's own baseline (Section VI-A): a naive instance-based matcher that
computes, for every pair of columns, the Jaccard similarity of their value
sets where two values are considered identical when their (normalised)
Levenshtein distance is below a threshold.  The method outputs a complete
ranked list of column pairs with their similarity scores.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from repro.data.table import Table
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.registry import register_matcher
from repro.text.distance import levenshtein_distance

__all__ = ["JaccardLevenshteinMatcher"]


def _normalised_value_set(values: Sequence[str]) -> frozenset[str]:
    """The distinct stripped/lowercased values — the per-column preparation."""
    return frozenset(str(v).strip().lower() for v in values)


def _fuzzy_jaccard(
    values_a: Sequence[str],
    values_b: Sequence[str],
    threshold: float,
    sample_size: int,
) -> float:
    """Jaccard similarity with fuzzy (Levenshtein-tolerant) value equality.

    Two values are "equal" when ``1 - levenshtein / max_len >= threshold``.
    Exact matches are counted first on sets (cheap); only the residue goes
    through the quadratic fuzzy pass, capped at *sample_size* values per side.
    """
    return _fuzzy_jaccard_sets(
        _normalised_value_set(values_a),
        _normalised_value_set(values_b),
        threshold=threshold,
        sample_size=sample_size,
    )


def _fuzzy_jaccard_sets(
    set_a: AbstractSet[str],
    set_b: AbstractSet[str],
    threshold: float,
    sample_size: int,
) -> float:
    """:func:`_fuzzy_jaccard` over already-normalised value sets."""
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0

    exact = set_a & set_b
    rest_a = sorted(set_a - exact)[:sample_size]
    rest_b = sorted(set_b - exact)[:sample_size]

    fuzzy_matches = 0
    matched_b: set[str] = set()
    for value_a in rest_a:
        for value_b in rest_b:
            if value_b in matched_b:
                continue
            # sim >= threshold iff distance <= (1 - threshold) * max_len, so
            # the DP can stop at a cutoff (one unit of float slack keeps the
            # accept decision identical to the uncut similarity comparison).
            longest = max(len(value_a), len(value_b))
            if longest == 0:
                similarity = 1.0
            else:
                cutoff = int((1.0 - threshold) * longest) + 1
                distance = levenshtein_distance(value_a, value_b, max_distance=cutoff)
                if distance > cutoff:
                    continue
                similarity = 1.0 - distance / longest
            if similarity >= threshold:
                fuzzy_matches += 1
                matched_b.add(value_b)
                break

    intersection = len(exact) + fuzzy_matches
    union = len(set_a | set_b) - fuzzy_matches
    if union <= 0:
        return 1.0
    return intersection / union


@register_matcher
class JaccardLevenshteinMatcher(BaseMatcher):
    """Naive fuzzy-Jaccard instance matcher (the paper's baseline).

    Parameters
    ----------
    threshold:
        Normalised Levenshtein similarity above which two values are treated
        as identical (paper grid: 0.4–0.8).
    sample_size:
        Number of distinct values per column considered in the quadratic
        fuzzy-matching pass (exact matches are always counted in full).
    """

    name = "JaccardLevenshtein"
    code = "JL"
    match_types = (MatchType.VALUE_OVERLAP,)
    uses_instances = True
    uses_schema = False

    def __init__(self, threshold: float = 0.8, sample_size: int = 200) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if sample_size < 0:
            raise ValueError("sample_size must be non-negative")
        self.threshold = threshold
        self.sample_size = sample_size

    def prepare_parameters(self) -> dict[str, object]:
        """Prepare only normalises value sets — no parameter shapes it.

        ``threshold`` and ``sample_size`` are applied pairwise in
        :meth:`match_prepared`, so every configuration shares one prepared
        payload per table.
        """
        return {}

    def prepare(self, table: Table) -> PreparedTable:
        """Normalise every column's value set once."""
        value_sets = {
            column.name: _normalised_value_set(column.as_strings())
            for column in table.columns
        }
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"value_sets": value_sets},
        )

    def score_bound(self, prepared_query: PreparedTable, signals) -> float:
        """Scheduling estimate only — ``bounds_admissible()`` stays False.

        The Levenshtein tolerance can lift the fuzzy Jaccard arbitrarily
        far above the sketch-level *exact* set Jaccard (two disjoint value
        sets of near-identical strings estimate ~0 but fuzzy-match ~1), so
        no sound bound exists from the signals.  The padded estimate still
        orders the rerank best-first and lets the anytime budget spend its
        deadline on the most promising candidates.
        """
        return min(1.0, signals.max_jaccard + 0.25)

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Score every source/target column pair with fuzzy Jaccard similarity."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        source_sets = source.payload["value_sets"]
        target_sets = target.payload["value_sets"]
        scores = {}
        for source_name in source.header.column_names:
            for target_name in target.header.column_names:
                scores[(source_name, target_name)] = _fuzzy_jaccard_sets(
                    source_sets[source_name],
                    target_sets[target_name],
                    threshold=self.threshold,
                    sample_size=self.sample_size,
                )
        return MatchResult.from_column_scores(source.header, target.header, scores)
