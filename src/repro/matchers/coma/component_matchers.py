"""COMA's constituent ("component") matchers.

COMA (Do & Rahm, VLDB 2002) is a *composite* matcher: it runs a library of
simple matchers over every element pair and combines their similarity values.
This module implements the component matchers used by the default strategies
of COMA 3.0 Community Edition as described in the literature:

Schema-level components
    * ``NameTokenMatcher`` — token-set similarity of attribute names with
      abbreviation expansion (a combination of trigram and edit similarity).
    * ``NameTrigramMatcher`` — character-trigram Dice similarity of raw names.
    * ``NamePathMatcher`` — similarity of the full ``table.column`` paths.
    * ``DataTypeMatcher`` — compatibility of inferred data types.
    * ``ThesaurusMatcher`` — synonym/hypernym lookups in the bundled lexicon.

Instance-level components (from the COMA++ instance extension)
    * ``ValueOverlapMatcher`` — Jaccard overlap of distinct value sets.
    * ``NumericStatisticsMatcher`` — similarity of numeric summary statistics.
    * ``PatternMatcher`` — similarity of simple value "shape" patterns
      (character classes and lengths).

Each component exposes ``similarity(source_column, target_column) -> float``
plus the two-phase form behind it: ``prepare(column)`` precomputes the
component's per-column features (token lists, trigram sets, value sets,
numeric profiles, pattern sets) and ``similarity_prepared(a, b)`` combines
two prepared feature bundles.  :class:`~repro.matchers.coma.matcher._ComaBase`
prepares every column of a table once and reuses the features across all
column pairs — and, through the matcher-level prepare/match protocol, across
all candidate tables of a discovery query.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.data.profiling import profile_column
from repro.data.table import Column
from repro.data.types import type_compatibility
from repro.text.distance import (
    dice_coefficient,
    jaccard_similarity,
    jaro_winkler_similarity,
    monge_elkan,
    normalized_levenshtein,
)
from repro.text.thesaurus import Thesaurus, default_thesaurus
from repro.text.tokenize import character_ngrams, tokenize_identifier

__all__ = [
    "ComponentMatcher",
    "NameTokenMatcher",
    "NameTrigramMatcher",
    "NamePathMatcher",
    "DataTypeMatcher",
    "ThesaurusMatcher",
    "ValueOverlapMatcher",
    "NumericStatisticsMatcher",
    "PatternMatcher",
]


class ComponentMatcher(Protocol):
    """Interface of a COMA component matcher."""

    name: str

    def similarity(self, source: Column, target: Column) -> float:
        """Similarity of two columns in [0, 1]."""
        ...  # pragma: no cover - protocol definition

    def prepare(self, column: Column) -> object:
        """Precompute this component's per-column features."""
        ...  # pragma: no cover - protocol definition

    def similarity_prepared(self, source: object, target: object) -> float:
        """Similarity of two prepared feature bundles in [0, 1]."""
        ...  # pragma: no cover - protocol definition


class _PreparableComponent:
    """Base for components: ``similarity`` is prepare-both-then-compare."""

    def prepare(self, column: Column) -> object:
        raise NotImplementedError

    def similarity_prepared(self, source: object, target: object) -> float:
        raise NotImplementedError

    def similarity(self, source: Column, target: Column) -> float:
        return self.similarity_prepared(self.prepare(source), self.prepare(target))


class NameTokenMatcher(_PreparableComponent):
    """Token-level name similarity with abbreviation expansion."""

    name = "name_tokens"

    def prepare(self, column: Column) -> list[str]:
        return tokenize_identifier(column.name)

    def similarity_prepared(self, source: list[str], target: list[str]) -> float:
        if not source or not target:
            return 0.0

        def inner(a: str, b: str) -> float:
            return max(jaro_winkler_similarity(a, b), normalized_levenshtein(a, b))

        forward = monge_elkan(source, target, inner=inner)
        backward = monge_elkan(target, source, inner=inner)
        return (forward + backward) / 2.0


class NameTrigramMatcher(_PreparableComponent):
    """Character-trigram Dice similarity of raw attribute names."""

    name = "name_trigrams"

    def prepare(self, column: Column) -> set[str]:
        return set(character_ngrams(column.name.lower(), n=3))

    def similarity_prepared(self, source: set[str], target: set[str]) -> float:
        return dice_coefficient(source, target)


class NamePathMatcher(_PreparableComponent):
    """Similarity of the qualified ``table.column`` name paths.

    Fabricated datasets frequently prefix column names with the table name;
    comparing full paths recovers signal in that case.
    """

    name = "name_path"

    def prepare(self, column: Column) -> tuple[set[str], str]:
        path = f"{column.table_name}.{column.name}".lower()
        return (set(character_ngrams(path, n=3)), column.name.lower())

    def similarity_prepared(
        self, source: tuple[set[str], str], target: tuple[set[str], str]
    ) -> float:
        trigram = dice_coefficient(source[0], target[0])
        # The unqualified tail often carries the real signal; blend both.
        tail = normalized_levenshtein(source[1], target[1])
        return 0.5 * trigram + 0.5 * tail


class DataTypeMatcher(_PreparableComponent):
    """Compatibility of the two columns' inferred data types."""

    name = "data_type"

    def prepare(self, column: Column):
        return column.data_type

    def similarity_prepared(self, source, target) -> float:
        return type_compatibility(source, target)


class ThesaurusMatcher(_PreparableComponent):
    """Synonym/hypernym relation score of the attribute names."""

    name = "thesaurus"

    def __init__(self, thesaurus: Thesaurus | None = None) -> None:
        self._thesaurus = thesaurus or default_thesaurus()

    def prepare(self, column: Column) -> list[str]:
        return tokenize_identifier(column.name)

    def similarity_prepared(self, source: list[str], target: list[str]) -> float:
        if not source or not target:
            return 0.0
        best = 0.0
        for token_a in source:
            for token_b in target:
                best = max(best, self._thesaurus.relation_score(token_a, token_b))
        return best


class ValueOverlapMatcher(_PreparableComponent):
    """Jaccard overlap of the distinct (normalised) value sets."""

    name = "value_overlap"

    def __init__(self, sample_size: int = 2000) -> None:
        self.sample_size = sample_size

    def prepare(self, column: Column) -> set[str]:
        return {str(v).strip().lower() for v in column.non_missing()[: self.sample_size]}

    def similarity_prepared(self, source: set[str], target: set[str]) -> float:
        return jaccard_similarity(source, target)


class NumericStatisticsMatcher(_PreparableComponent):
    """Similarity of numeric summary statistics (mean, std, range).

    Non-numeric columns score 0.  Statistics are compared with a bounded
    relative-difference measure so the result stays in [0, 1].
    """

    name = "numeric_statistics"

    @staticmethod
    def _relative_similarity(a: float, b: float) -> float:
        if a == b:
            return 1.0
        denominator = max(abs(a), abs(b))
        if denominator == 0:
            return 1.0
        return max(0.0, 1.0 - abs(a - b) / denominator)

    def prepare(self, column: Column):
        if not column.data_type.is_numeric:
            return None
        return profile_column(column)

    def similarity_prepared(self, source, target) -> float:
        if source is None or target is None:
            return 0.0
        if source.mean is None or target.mean is None:
            return 0.0
        parts = [
            self._relative_similarity(source.mean, target.mean),
            self._relative_similarity(source.std or 0.0, target.std or 0.0),
            self._relative_similarity(source.minimum or 0.0, target.minimum or 0.0),
            self._relative_similarity(source.maximum or 0.0, target.maximum or 0.0),
        ]
        return sum(parts) / len(parts)


class PatternMatcher(_PreparableComponent):
    """Similarity of value "shape" patterns.

    Every value is abstracted into a pattern of character classes
    (``9`` digits, ``A`` letters, ``#`` other) collapsed by run-length; the
    similarity is the Jaccard overlap of the two columns' pattern sets,
    blended with the similarity of average value lengths.
    """

    name = "pattern"

    def __init__(self, sample_size: int = 500) -> None:
        self.sample_size = sample_size

    @staticmethod
    def _pattern(value: str) -> str:
        classes = []
        for char in value:
            if char.isdigit():
                classes.append("9")
            elif char.isalpha():
                classes.append("A")
            elif char.isspace():
                classes.append("_")
            else:
                classes.append("#")
        collapsed = []
        for symbol in classes:
            if not collapsed or collapsed[-1] != symbol:
                collapsed.append(symbol)
        return "".join(collapsed)

    def prepare(self, column: Column) -> Optional[tuple[set[str], float]]:
        values = column.as_strings()[: self.sample_size]
        if not values:
            return None
        patterns = {self._pattern(v) for v in values}
        avg_len = sum(len(v) for v in values) / len(values)
        return (patterns, avg_len)

    def similarity_prepared(
        self,
        source: Optional[tuple[set[str], float]],
        target: Optional[tuple[set[str], float]],
    ) -> float:
        if source is None or target is None:
            return 0.0
        patterns_a, avg_len_a = source
        patterns_b, avg_len_b = target
        pattern_overlap = jaccard_similarity(patterns_a, patterns_b)
        longest = max(avg_len_a, avg_len_b)
        length_similarity = 1.0 - abs(avg_len_a - avg_len_b) / longest if longest else 1.0
        return 0.6 * pattern_overlap + 0.4 * length_similarity
