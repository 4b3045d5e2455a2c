"""Tests for the COMA composite matcher (schema and instance flavours)."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.matchers.coma.matcher import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.coma.combination import CombinationConfig, aggregate, select_pairs
from repro.matchers.coma.component_matchers import (
    DataTypeMatcher,
    NamePathMatcher,
    NameTokenMatcher,
    NameTrigramMatcher,
    NumericStatisticsMatcher,
    PatternMatcher,
    ThesaurusMatcher,
    ValueOverlapMatcher,
)
from repro.metrics.ranking import recall_at_ground_truth


def _col(name: str, values, table: str = "t") -> Column:
    column = Column(name, values)
    column.table_name = table
    return column


class TestComponentMatchers:
    def test_name_token_matcher_synonym_free(self):
        matcher = NameTokenMatcher()
        same = matcher.similarity(_col("customer_name", []), _col("customer_name", []))
        close = matcher.similarity(_col("cust_name", []), _col("customer_name", []))
        far = matcher.similarity(_col("salary", []), _col("country", []))
        assert same == pytest.approx(1.0)
        assert close > far

    def test_name_trigram_matcher(self):
        matcher = NameTrigramMatcher()
        assert matcher.similarity(_col("address", []), _col("address", [])) == pytest.approx(1.0)
        assert matcher.similarity(_col("address", []), _col("addres", [])) > 0.5

    def test_name_path_matcher_handles_table_prefixes(self):
        matcher = NamePathMatcher()
        plain = _col("city", [], table="customers")
        prefixed = _col("customers_city", [], table="customers_left")
        assert matcher.similarity(plain, prefixed) > 0.4

    def test_data_type_matcher(self):
        matcher = DataTypeMatcher()
        assert matcher.similarity(_col("a", [1, 2]), _col("b", [3, 4])) == 1.0
        assert matcher.similarity(_col("a", [1, 2]), _col("b", ["x", "y"])) < 0.5

    def test_thesaurus_matcher(self):
        matcher = ThesaurusMatcher()
        assert matcher.similarity(_col("client", []), _col("customer", [])) == 1.0
        assert matcher.similarity(_col("salary", []), _col("country", [])) == 0.0

    def test_value_overlap_matcher(self):
        matcher = ValueOverlapMatcher()
        assert matcher.similarity(_col("a", ["x", "y"]), _col("b", ["x", "y"])) == 1.0
        assert matcher.similarity(_col("a", ["x"]), _col("b", ["z"])) == 0.0

    def test_numeric_statistics_matcher(self):
        matcher = NumericStatisticsMatcher()
        close = matcher.similarity(_col("a", [10, 20, 30]), _col("b", [11, 19, 31]))
        far = matcher.similarity(_col("a", [10, 20, 30]), _col("b", [1000, 2000, 3000]))
        assert close > far
        assert matcher.similarity(_col("a", ["x"]), _col("b", [1])) == 0.0

    def test_pattern_matcher(self):
        matcher = PatternMatcher()
        phones_a = _col("a", ["+31-123-4567890", "+44-999-1234567"])
        phones_b = _col("b", ["+1-555-7654321"])
        words = _col("c", ["amsterdam", "rotterdam"])
        assert matcher.similarity(phones_a, phones_b) > matcher.similarity(phones_a, words)
        assert matcher.similarity(_col("e", []), phones_b) == 0.0


class TestCombination:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CombinationConfig(aggregation="bogus")
        with pytest.raises(ValueError):
            CombinationConfig(selection="bogus")

    def test_aggregate_average_and_max(self):
        component_scores = {
            "one": {("a", "x"): 0.2},
            "two": {("a", "x"): 0.8, ("b", "y"): 0.4},
        }
        average = aggregate(component_scores, CombinationConfig(aggregation="average"))
        maximum = aggregate(component_scores, CombinationConfig(aggregation="max"))
        assert average[("a", "x")] == pytest.approx(0.5)
        assert maximum[("a", "x")] == pytest.approx(0.8)
        assert average[("b", "y")] == pytest.approx(0.4)

    def test_aggregate_weighted(self):
        component_scores = {"one": {("a", "x"): 1.0}, "two": {("a", "x"): 0.0}}
        config = CombinationConfig(aggregation="weighted", weights={"one": 3.0, "two": 1.0})
        assert aggregate(component_scores, config)[("a", "x")] == pytest.approx(0.75)

    def test_selection_threshold(self):
        aggregated = {("a", "x"): 0.7, ("b", "y"): 0.2}
        config = CombinationConfig(selection="threshold", threshold=0.5)
        assert select_pairs(aggregated, config) == {("a", "x"): 0.7}

    def test_selection_max_delta(self):
        aggregated = {("a", "x"): 0.9, ("a", "y"): 0.88, ("a", "z"): 0.2}
        config = CombinationConfig(selection="max_delta", delta=0.05)
        selected = select_pairs(aggregated, config)
        assert set(selected) == {("a", "x"), ("a", "y")}

    def test_selection_all(self):
        aggregated = {("a", "x"): 0.0}
        assert select_pairs(aggregated, CombinationConfig(selection="all")) == aggregated


class TestComaMatchers:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ComaSchemaMatcher(threshold=2.0)

    def test_schema_flavour_perfect_on_verbatim(self, unionable_pair):
        result = ComaSchemaMatcher().get_matches(unionable_pair.source, unionable_pair.target)
        assert recall_at_ground_truth(result.ranked_pairs(), unionable_pair.ground_truth) == 1.0

    def test_instance_flavour_beats_schema_on_renamed_columns(self):
        source = Table("s", {"code_one": ["aa", "bb", "cc", "dd"], "code_two": ["1", "2", "3", "4"]})
        target = Table("t", {"completely_x": ["aa", "bb", "cc", "dd"], "entirely_y": ["1", "2", "3", "4"]})
        truth = [("code_one", "completely_x"), ("code_two", "entirely_y")]
        schema_result = ComaSchemaMatcher().get_matches(source, target)
        instance_result = ComaInstanceMatcher().get_matches(source, target)
        schema_recall = recall_at_ground_truth(schema_result.ranked_pairs(), truth)
        instance_recall = recall_at_ground_truth(instance_result.ranked_pairs(), truth)
        assert instance_recall >= schema_recall

    def test_instance_flavour_uses_instances_flag(self):
        assert ComaInstanceMatcher.uses_instances is True
        assert ComaSchemaMatcher.uses_instances is False

    def test_complete_ranking(self, clients_table, offices_table):
        result = ComaSchemaMatcher().get_matches(clients_table, offices_table)
        assert len(result) == clients_table.num_columns * offices_table.num_columns

    def test_both_directions_symmetric_scores(self, clients_table, offices_table):
        forward = ComaSchemaMatcher().get_matches(clients_table, offices_table).scores()
        backward = ComaSchemaMatcher().get_matches(offices_table, clients_table).scores()
        for (source_col, target_col), score in forward.items():
            assert backward[(target_col, source_col)] == pytest.approx(score, abs=1e-9)
