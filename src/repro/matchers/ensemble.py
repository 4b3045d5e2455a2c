"""Ensemble matcher: rank aggregation over multiple matching methods.

The paper's first "lesson learned" (Section IX) is that no single method wins
everywhere and that "composing state-of-the-art matching methods ... should
be the preferred way in dataset discovery pipelines".  This module provides
that composition as a first-class matcher: an :class:`EnsembleMatcher` runs
several base matchers and aggregates their rankings.

Three aggregation strategies are provided:

* ``"score_average"`` — per pair, the (optionally weighted) mean of the base
  matchers' scores (each base ranking is min-max normalised first so methods
  with different score scales combine fairly);
* ``"score_max"`` — per pair, the best normalised score any base matcher
  assigns;
* ``"borda"`` — classic Borda-count rank aggregation over the base rankings.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.data.table import Table
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.registry import register_matcher

__all__ = ["EnsembleMatcher"]

#: (source column name, target column name): members all match the same two tables.
PairKey = tuple[str, str]


def _normalised_scores(result: MatchResult) -> dict[PairKey, float]:
    """Min-max normalise a ranking's scores into [0, 1] (constant → 1.0)."""
    pairs = result.ranked_pairs()
    if not pairs:
        return {}
    scores = [match.score for match in result]
    low, high = min(scores), max(scores)
    if high == low:
        return {pair: 1.0 for pair in pairs}
    normalised: dict[PairKey, float] = {}
    for match in result:
        key = match.as_pair()
        value = (match.score - low) / (high - low)
        normalised[key] = max(normalised.get(key, 0.0), value)
    return normalised


def _borda_points(result: MatchResult) -> dict[PairKey, float]:
    """Borda points: the best rank gets n-1 points, the worst gets 0."""
    pairs = result.ranked_pairs()
    total = len(pairs)
    points: dict[PairKey, float] = {}
    for position, pair in enumerate(pairs):
        points.setdefault(pair, float(total - 1 - position))
    return points


class EnsembleMatcher(BaseMatcher):
    """Combine several base matchers into one ranked output.

    Parameters
    ----------
    matchers:
        The base matching methods (at least one).
    aggregation:
        ``"score_average"``, ``"score_max"`` or ``"borda"``.
    weights:
        Optional per-matcher weights (keyed by matcher name) for the
        ``"score_average"`` strategy.
    """

    name = "Ensemble"
    code = "ENS"
    match_types = tuple(MatchType)
    uses_instances = True
    uses_schema = True

    def __init__(
        self,
        matchers: Sequence[BaseMatcher],
        aggregation: str = "score_average",
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if not matchers:
            raise ValueError("an ensemble needs at least one base matcher")
        if aggregation not in ("score_average", "score_max", "borda"):
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.aggregation = aggregation
        self.weights = dict(weights or {})
        self._matchers = list(matchers)

    def parameters(self) -> dict[str, object]:
        """Ensemble configuration plus the names of the base matchers."""
        return {
            "aggregation": self.aggregation,
            "weights": dict(self.weights),
            "base_matchers": [matcher.name for matcher in self._matchers],
        }

    def fingerprint(self) -> str:
        """Ensemble identity: own config plus every member's fingerprint.

        Two ensembles whose members merely share *names* but differ in
        configuration must not share prepared tables.
        """
        members = "; ".join(matcher.fingerprint() for matcher in self._matchers)
        return f"{super().fingerprint()}[{members}]"

    def prepare(self, table: Table) -> PreparedTable:
        """Prepare *table* once per member matcher.

        The payload holds one member-specific :class:`PreparedTable` per base
        matcher (keyed by position), so a discovery query prepared once is
        reused by every member across every candidate.
        """
        members = tuple(matcher.prepare(table) for matcher in self._matchers)
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"members": members},
        )

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Run every base matcher on its prepared pair and aggregate rankings."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        source_members = source.payload["members"]
        target_members = target.payload["members"]
        base_results = []
        for matcher, prepared_source, prepared_target in zip(
            self._matchers, source_members, target_members
        ):
            result = matcher.match_prepared(prepared_source, prepared_target)
            base_results.append((matcher, result))

        combined: dict[PairKey, float] = {}
        if self.aggregation == "borda":
            for _, result in base_results:
                for pair, points in _borda_points(result).items():
                    combined[pair] = combined.get(pair, 0.0) + points
            maximum = max(combined.values(), default=0.0)
            if maximum > 0:
                combined = {pair: value / maximum for pair, value in combined.items()}
        else:
            totals: dict[PairKey, float] = {}
            weight_sums: dict[PairKey, float] = {}
            for matcher, result in base_results:
                weight = self.weights.get(matcher.name, 1.0)
                for pair, score in _normalised_scores(result).items():
                    if self.aggregation == "score_max":
                        totals[pair] = max(totals.get(pair, 0.0), score)
                        weight_sums[pair] = 1.0
                    else:
                        totals[pair] = totals.get(pair, 0.0) + weight * score
                        weight_sums[pair] = weight_sums.get(pair, 0.0) + weight
            combined = {
                pair: totals[pair] / weight_sums[pair] if weight_sums[pair] else 0.0
                for pair in totals
            }

        return MatchResult.from_column_scores(source.header, target.header, combined)
