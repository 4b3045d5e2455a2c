"""Tests for the full fabrication grid."""

from __future__ import annotations

import pytest

from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import DatasetPair, NoiseVariant, Scenario


class TestFabricationGrid:
    def test_default_grid_counts(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig())
        pairs = fabricator.fabricate(small_seed_table)
        by_scenario = {}
        for pair in pairs:
            by_scenario.setdefault(pair.scenario, []).append(pair)
        # Figure 3: unionable = 3 overlaps x 4 variants
        assert len(by_scenario[Scenario.UNIONABLE]) == 12
        # view-unionable = 3 overlaps x 4 variants
        assert len(by_scenario[Scenario.VIEW_UNIONABLE]) == 12
        # joinable = 4 overlaps x 2 variants x 2 (with/without row split)
        assert len(by_scenario[Scenario.JOINABLE]) == 16
        assert len(by_scenario[Scenario.SEMANTICALLY_JOINABLE]) == 16

    def test_scenario_subset(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig())
        pairs = fabricator.fabricate(small_seed_table, scenarios=[Scenario.JOINABLE])
        assert {pair.scenario for pair in pairs} == {Scenario.JOINABLE}

    def test_all_pairs_validate(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig(seed=77))
        for pair in fabricator.fabricate(small_seed_table):
            pair.validate()
            assert pair.ground_truth_size > 0

    def test_unique_pair_names(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig())
        pairs = fabricator.fabricate(small_seed_table)
        names = [pair.name for pair in pairs]
        assert len(names) == len(set(names))

    def test_repetitions_scale_pair_count(self, small_seed_table):
        single = Fabricator(FabricationConfig(repetitions=1)).fabricate(
            small_seed_table, scenarios=[Scenario.UNIONABLE]
        )
        double = Fabricator(FabricationConfig(repetitions=2)).fabricate(
            small_seed_table, scenarios=[Scenario.UNIONABLE]
        )
        assert len(double) == 2 * len(single)
        assert len({pair.name for pair in double}) == len(double)

    def test_join_row_split_toggle(self, small_seed_table):
        config = FabricationConfig(include_row_split_joins=False)
        pairs = Fabricator(config).fabricate(small_seed_table, scenarios=[Scenario.JOINABLE])
        assert len(pairs) == 8  # 4 overlaps x 2 variants


class TestNoiseVariantSemantics:
    def test_variant_flags(self):
        assert NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES.noisy_schema
        assert NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES.noisy_instances
        assert not NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES.noisy_schema
        assert not NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES.noisy_instances

    def test_joinable_grid_has_verbatim_instances_only(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig())
        pairs = fabricator.fabricate(small_seed_table, scenarios=[Scenario.JOINABLE])
        assert all(not pair.variant.noisy_instances for pair in pairs)

    def test_semantically_joinable_grid_has_noisy_instances_only(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig())
        pairs = fabricator.fabricate(small_seed_table, scenarios=[Scenario.SEMANTICALLY_JOINABLE])
        assert all(pair.variant.noisy_instances for pair in pairs)


class TestDatasetPairModel:
    def test_describe_contains_key_facts(self, unionable_pair):
        text = unionable_pair.describe()
        assert "unionable" in text
        assert str(unionable_pair.ground_truth_size) in text

    def test_validate_detects_bad_ground_truth(self, unionable_pair):
        broken = DatasetPair(
            name="broken",
            source=unionable_pair.source,
            target=unionable_pair.target,
            ground_truth=[("does_not_exist", "nope")],
            scenario=Scenario.UNIONABLE,
        )
        with pytest.raises(ValueError, match="unknown columns"):
            broken.validate()
