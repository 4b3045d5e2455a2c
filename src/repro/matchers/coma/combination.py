"""COMA's similarity combination machinery.

COMA combines the similarity cube produced by its component matchers in three
configurable steps:

* **aggregation** of per-component similarities into one value per element
  pair (``max``, ``average``, ``weighted``);
* **direction** — similarity is evaluated source→target, target→source or in
  both directions (both directions is the COMA default and is what keeps
  rankings symmetric);
* **selection** — which candidate pairs are reported (``threshold``,
  ``max-delta``, or ``all`` — Valentine configures COMA with threshold 0 so
  every pair is reported with its score and ranking decides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["CombinationConfig", "aggregate", "select_pairs"]

PairKey = tuple[str, str]


@dataclass(frozen=True)
class CombinationConfig:
    """Configuration of COMA's combination step.

    Attributes
    ----------
    aggregation:
        ``"max"``, ``"average"`` or ``"weighted"``.
    weights:
        Component name → weight (only used by ``"weighted"``).
    selection:
        ``"all"``, ``"threshold"`` or ``"max_delta"``.
    threshold:
        Similarity threshold for the ``"threshold"`` selection (Valentine
        sets 0, i.e. report everything).
    delta:
        Tolerance for the ``"max_delta"`` selection: pairs within *delta* of
        the best score per source column survive.
    """

    aggregation: str = "average"
    weights: Mapping[str, float] | None = None
    selection: str = "threshold"
    threshold: float = 0.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.aggregation not in ("max", "average", "weighted"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.selection not in ("all", "threshold", "max_delta"):
            raise ValueError(f"unknown selection {self.selection!r}")


def aggregate(
    component_scores: Mapping[str, Mapping[PairKey, float]],
    config: CombinationConfig,
) -> dict[PairKey, float]:
    """Aggregate per-component similarities into one score per pair."""
    pairs = dict.fromkeys(pair for scores in component_scores.values() for pair in scores)
    aggregated: dict[PairKey, float] = {}
    for pair in pairs:
        values = []
        weights = []
        for component, scores in component_scores.items():
            value = scores.get(pair)
            if value is None:
                continue
            values.append(value)
            if config.aggregation == "weighted":
                weights.append((config.weights or {}).get(component, 1.0))
        if not values:
            aggregated[pair] = 0.0
        elif config.aggregation == "max":
            aggregated[pair] = max(values)
        elif config.aggregation == "average":
            aggregated[pair] = sum(values) / len(values)
        else:  # weighted
            total_weight = sum(weights) or 1.0
            aggregated[pair] = sum(v * w for v, w in zip(values, weights)) / total_weight
    return aggregated


def select_pairs(
    aggregated: Mapping[PairKey, float],
    config: CombinationConfig,
) -> dict[PairKey, float]:
    """Apply COMA's selection strategy to the aggregated similarities."""
    if config.selection == "all":
        return dict(aggregated)
    if config.selection == "threshold":
        return {pair: score for pair, score in aggregated.items() if score >= config.threshold}
    # max_delta: per source column keep candidates within delta of the best.
    best_per_source: dict[str, float] = {}
    for (source, _), score in aggregated.items():
        best_per_source[source] = max(best_per_source.get(source, 0.0), score)
    return {
        pair: score
        for pair, score in aggregated.items()
        if score >= best_per_source[pair[0]] - config.delta
    }
