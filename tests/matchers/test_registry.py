"""Tests for the matcher registry and the Table I coverage report."""

from __future__ import annotations

import pytest

from repro.experiments.reports import render_coverage_table
from repro.matchers import registry
from repro.matchers.base import MatchType
from repro.matchers.registry import available_matchers, coverage_table, matcher_class


EXPECTED_METHODS = {
    "cupid",
    "similarityflooding",
    "comaschema",
    "comainstance",
    "distributionbased",
    "semprop",
    "embdi",
    "jaccardlevenshtein",
}


class TestRegistry:
    def test_all_seven_methods_registered(self):
        assert EXPECTED_METHODS <= set(available_matchers())

    def test_lookup_case_insensitive(self):
        assert matcher_class("Cupid") is matcher_class("cupid")

    def test_unknown_matcher_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known matchers"):
            matcher_class("does-not-exist")

    def test_available_matchers_are_exactly_the_eight(self):
        assert set(available_matchers()) == EXPECTED_METHODS

    @pytest.mark.parametrize("key", sorted(EXPECTED_METHODS))
    def test_every_table_entry_names_the_class_its_key_is_named_after(self, key):
        module, class_name = registry._MATCHERS[key]
        cls = matcher_class(key)
        assert (cls.__module__, cls.__name__) == (module, class_name)
        assert cls.name.lower() == key

    def test_every_registered_class_is_instantiable(self):
        for cls in available_matchers().values():
            instance = cls()
            assert instance.name
            assert instance.code


class TestCoverageTable:
    def test_rows_for_every_method(self):
        rows = coverage_table()
        methods = {row["method"].lower() for row in rows}
        assert EXPECTED_METHODS <= methods

    def test_coverage_matches_table_one(self):
        """Spot checks against Table I of the paper."""
        by_method = {row["method"]: row for row in coverage_table()}
        # Cupid: attribute overlap, semantic overlap, data type.
        assert by_method["Cupid"][MatchType.ATTRIBUTE_OVERLAP.value]
        assert by_method["Cupid"][MatchType.DATA_TYPE.value]
        assert not by_method["Cupid"][MatchType.VALUE_OVERLAP.value]
        # Jaccard-Levenshtein: value overlap only.
        jl = by_method["JaccardLevenshtein"]
        assert jl[MatchType.VALUE_OVERLAP.value]
        assert not jl[MatchType.ATTRIBUTE_OVERLAP.value]
        # EmbDI covers embeddings.
        assert by_method["EmbDI"][MatchType.EMBEDDINGS.value]
        # Distribution-based covers distribution.
        assert by_method["DistributionBased"][MatchType.DISTRIBUTION.value]

    def test_coverage_prints_table_one(self):
        """``repro coverage`` prints these rows, in this order."""
        rows = [line.rstrip() for line in render_coverage_table().splitlines()[2:]]
        assert rows == [
            "ComaInstance       | COI  | X                 | X             | X                | X         | X            |",
            "ComaSchema         | COS  | X                 |               | X                | X         |              |",
            "Cupid              | CU   | X                 |               | X                | X         |              |",
            "DistributionBased  | DB   |                   | X             |                  |           | X            |",
            "EmbDI              | EDI  |                   | X             |                  |           |              | X",
            "JaccardLevenshtein | JL   |                   | X             |                  |           |              |",
            "SemProp            | SP   |                   | X             | X                |           |              | X",
            "SimilarityFlooding | SF   | X                 |               |                  | X         |              |",
        ]

    def test_every_match_type_covered_by_some_method(self):
        rows = coverage_table()
        for match_type in MatchType:
            assert any(row[match_type.value] for row in rows)
