"""The COMA composite matcher (Do & Rahm, VLDB 2002; COMA++ / COMA 3.0).

Two flavours are exposed, matching the two strategies Valentine evaluates:

* :class:`ComaSchemaMatcher` (``COMA-Schema``, code ``COS``) combines the
  schema-level component matchers;
* :class:`ComaInstanceMatcher` (``COMA-Instance``, code ``COI``) additionally
  combines the instance-level components from the COMA++ instance extension.

Valentine runs COMA with the accept threshold set to 0 so that every element
pair is reported with its combined similarity, and ranking decides.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.table import Table
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.coma.combination import CombinationConfig, aggregate, select_pairs
from repro.matchers.coma.component_matchers import (
    ComponentMatcher,
    DataTypeMatcher,
    NamePathMatcher,
    NameTokenMatcher,
    NameTrigramMatcher,
    NumericStatisticsMatcher,
    PatternMatcher,
    ThesaurusMatcher,
    ValueOverlapMatcher,
)

__all__ = ["ComaSchemaMatcher", "ComaInstanceMatcher"]


class _ComaBase(BaseMatcher):
    """Shared implementation of the two COMA strategies."""

    uses_schema = True

    def __init__(
        self,
        threshold: float = 0.0,
        aggregation: str = "average",
        use_both_directions: bool = True,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.aggregation = aggregation
        self.use_both_directions = use_both_directions
        self._config = CombinationConfig(
            aggregation=aggregation,
            selection="threshold",
            threshold=threshold,
        )

    def _components(self) -> Sequence[ComponentMatcher]:
        raise NotImplementedError

    def prepare_parameters(self) -> dict[str, object]:
        """Only parameters consumed by a component's prepare stage.

        ``threshold``/``aggregation``/``use_both_directions`` shape the
        combination step in :meth:`match_prepared`; of the constructor
        parameters only ``sample_size`` (COMA-Instance's value sampling)
        changes the per-column features.
        """
        return {
            key: value
            for key, value in self.parameters().items()
            if key == "sample_size"
        }

    def prepare(self, table: Table) -> PreparedTable:
        """Precompute every component's per-column features once per table.

        The payload maps each component name to its feature bundle per
        column (in column order), so the pairwise stage never re-tokenises
        names or re-normalises value sets.
        """
        features = {
            component.name: [component.prepare(column) for column in table.columns]
            for component in self._components()
        }
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"features": features},
        )

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Run every component matcher, aggregate and rank the similarities."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        source_features = source.payload["features"]
        target_features = target.payload["features"]
        source_names = source.header.column_names
        target_names = target.header.column_names

        component_scores: dict[str, dict[tuple[str, str], float]] = {}
        for component in self._components():
            features_a = source_features[component.name]
            features_b = target_features[component.name]
            scores: dict[tuple[str, str], float] = {}
            for i, source_name in enumerate(source_names):
                for j, target_name in enumerate(target_names):
                    forward = component.similarity_prepared(features_a[i], features_b[j])
                    if self.use_both_directions:
                        backward = component.similarity_prepared(
                            features_b[j], features_a[i]
                        )
                        value = (forward + backward) / 2.0
                    else:
                        value = forward
                    scores[(source_name, target_name)] = value
            component_scores[component.name] = scores

        aggregated = aggregate(component_scores, self._config)
        selected = select_pairs(aggregated, self._config)
        return MatchResult.from_column_scores(source.header, target.header, selected)


class ComaSchemaMatcher(_ComaBase):
    """COMA with the default schema-level strategy (name, path, type, thesaurus).

    Parameters
    ----------
    threshold:
        Accept threshold for reported pairs (Valentine sets 0).
    aggregation:
        Aggregation of component similarities (default COMA average).
    use_both_directions:
        Evaluate similarity in both directions and average (COMA default).
    """

    name = "ComaSchema"
    code = "COS"
    match_types = (MatchType.ATTRIBUTE_OVERLAP, MatchType.SEMANTIC_OVERLAP, MatchType.DATA_TYPE)
    uses_instances = False

    def _components(self) -> Sequence[ComponentMatcher]:
        return (
            NameTokenMatcher(),
            NameTrigramMatcher(),
            NamePathMatcher(),
            DataTypeMatcher(),
            ThesaurusMatcher(),
        )


class ComaInstanceMatcher(_ComaBase):
    """COMA with the instance-extended strategy (COMA++ instance matchers).

    Combines the schema-level components with value-overlap, numeric
    statistics and pattern matchers over the columns' instances.
    """

    name = "ComaInstance"
    code = "COI"
    match_types = (
        MatchType.ATTRIBUTE_OVERLAP,
        MatchType.VALUE_OVERLAP,
        MatchType.SEMANTIC_OVERLAP,
        MatchType.DATA_TYPE,
        MatchType.DISTRIBUTION,
    )
    uses_instances = True

    def __init__(
        self,
        threshold: float = 0.0,
        aggregation: str = "average",
        use_both_directions: bool = True,
        sample_size: int = 2000,
    ) -> None:
        super().__init__(
            threshold=threshold,
            aggregation=aggregation,
            use_both_directions=use_both_directions,
        )
        self.sample_size = sample_size

    def _components(self) -> Sequence[ComponentMatcher]:
        return (
            NameTokenMatcher(),
            NameTrigramMatcher(),
            NamePathMatcher(),
            DataTypeMatcher(),
            ThesaurusMatcher(),
            ValueOverlapMatcher(sample_size=self.sample_size),
            NumericStatisticsMatcher(),
            PatternMatcher(),
        )
