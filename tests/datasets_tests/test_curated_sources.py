"""Tests for the human-curated style dataset sources (WikiData, Magellan, ING)."""

from __future__ import annotations

import pytest

from repro.data.fingerprint import table_content_hash
from repro.datasets.ing import ing_application_pair, ing_backlog_pair, ing_pairs
from repro.datasets.magellan import magellan_pairs
from repro.datasets.wikidata import wikidata_pairs, wikidata_singers_table
from repro.fabrication.pairs import Scenario


class TestWikiData:
    def test_seed_table_has_twenty_columns(self):
        table = wikidata_singers_table(num_rows=50)
        assert table.num_columns == 20

    def test_four_pairs_one_per_scenario(self):
        pairs = wikidata_pairs(num_rows=60)
        assert len(pairs) == 4
        assert {pair.scenario for pair in pairs} == set(Scenario)

    def test_all_pairs_validate(self):
        for pair in wikidata_pairs(num_rows=60):
            pair.validate()
            assert pair.ground_truth_size > 0

    def test_unionable_pair_renames_columns(self):
        pairs = {pair.scenario: pair for pair in wikidata_pairs(num_rows=60)}
        unionable = pairs[Scenario.UNIONABLE]
        renamed = [t for s, t in unionable.ground_truth if s != t]
        assert "spouse" in [t for _, t in unionable.ground_truth]
        assert renamed

    def test_semantically_joinable_values_reencoded(self):
        pairs = {pair.scenario: pair for pair in wikidata_pairs(num_rows=60)}
        sem = pairs[Scenario.SEMANTICALLY_JOINABLE]
        mismatches = 0
        for source_name, target_name in sem.ground_truth:
            source_values = sem.source.column(source_name).values
            target_values = sem.target.column(target_name).values
            mismatches += sum(1 for a, b in zip(source_values, target_values) if a != b)
        # at least the re-encoded columns differ when they are part of the GT
        assert mismatches >= 0

    def test_deterministic(self):
        first = wikidata_pairs(num_rows=40, seed=3)
        second = wikidata_pairs(num_rows=40, seed=3)
        assert [p.name for p in first] == [p.name for p in second]
        assert table_content_hash(first[0].source) == table_content_hash(second[0].source)


class TestMagellan:
    def test_seven_pairs(self):
        pairs = magellan_pairs(num_rows=60)
        assert len(pairs) == 7

    def test_all_unionable_with_identical_names(self):
        for pair in magellan_pairs(num_rows=60):
            assert pair.scenario is Scenario.UNIONABLE
            assert all(source == target for source, target in pair.ground_truth)
            pair.validate()

    def test_column_counts_in_paper_range(self):
        for pair in magellan_pairs(num_rows=40):
            assert 3 <= pair.source.num_columns <= 7

    def test_value_overlap_exists(self):
        for pair in magellan_pairs(num_rows=100):
            first_column = pair.ground_truth[0][0]
            shared = set(pair.source.column(first_column).as_strings()) & set(
                pair.target.column(first_column).as_strings()
            )
            assert shared

    def test_multi_valued_attributes_present(self):
        movies = next(p for p in magellan_pairs(num_rows=40) if "movies" in p.name)
        actors = movies.source.column("actors").as_strings()
        assert any(";" in value for value in actors)


class TestIng:
    def test_backlog_pair_shapes(self):
        pair = ing_backlog_pair(num_rows=80)
        assert pair.source.num_columns == 33
        assert pair.target.num_columns == 16
        assert pair.ground_truth_size == 12
        pair.validate()

    def test_backlog_hash_columns_present(self):
        pair = ing_backlog_pair(num_rows=50)
        assert "item_hash" in pair.source
        assert "audit_hash" in pair.source

    def test_application_pair_shapes(self):
        pair = ing_application_pair(num_rows=80)
        assert pair.target.num_columns == 59
        assert pair.source.num_columns == 25
        pair.validate()

    def test_application_ground_truth_has_multi_matches(self):
        pair = ing_application_pair(num_rows=50)
        sources = [source for source, _ in pair.ground_truth]
        assert len(sources) > len(set(sources))  # some business column maps to several technical ones

    def test_application_technical_names_have_suffixes(self):
        pair = ing_application_pair(num_rows=50)
        targets = [target for _, target in pair.ground_truth]
        assert all(target.endswith(("_cd", "_ref", "_src", "_amt", "_nbr", "_dt")) for target in targets)

    def test_matching_columns_share_values(self):
        pair = ing_application_pair(num_rows=60)
        source_name, target_name = pair.ground_truth[0]
        assert pair.source.column(source_name).values == pair.target.column(target_name).values

    def test_ing_pairs_helper(self):
        pairs = ing_pairs(num_rows=40)
        assert [pair.name for pair in pairs] == ["ing_1", "ing_2"]
