"""Integration tests: full pipelines across fabrication, matching and evaluation.

These tests reproduce — at tiny scale — the qualitative findings of the paper
(Section VII): which methods work where.  They exercise the whole stack:
dataset generators → fabricator → matchers → metrics → aggregation.
"""

from __future__ import annotations

import pytest

from repro.datasets.ing import ing_application_pair
from repro.datasets.magellan import magellan_pairs
from repro.datasets.wikidata import wikidata_pairs
from repro.experiments.parameters import ParameterGrid
from repro.experiments.runner import ExperimentRunner, run_single_experiment
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import NoiseVariant, Scenario
from repro.fabrication.scenarios import fabricate_joinable, fabricate_unionable
from repro.matchers.coma.matcher import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.distribution_based.matcher import DistributionBasedMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.similarity_flooding.matcher import SimilarityFloodingMatcher
from repro.metrics.ranking import recall_at_ground_truth


class TestExpectedResultsSection:
    """Section VII-A4: with verbatim schemata, schema methods place all matches on top."""

    def test_schema_methods_perfect_on_verbatim_schemata(self, unionable_pair):
        for matcher in (CupidMatcher(), SimilarityFloodingMatcher(), ComaSchemaMatcher()):
            result = matcher.get_matches(unionable_pair.source, unionable_pair.target)
            recall = recall_at_ground_truth(result.ranked_pairs(), unionable_pair.ground_truth)
            assert recall == 1.0, matcher.name

    def test_instance_methods_better_on_verbatim_than_noisy_instances(self, small_seed_table):
        import random

        verbatim = fabricate_joinable(
            small_seed_table,
            NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES,
            column_overlap=0.5,
            rng=random.Random(21),
        )
        matcher = JaccardLevenshteinMatcher(threshold=0.8, sample_size=40)
        result = matcher.get_matches(verbatim.source, verbatim.target)
        verbatim_recall = recall_at_ground_truth(result.ranked_pairs(), verbatim.ground_truth)
        assert verbatim_recall >= 0.5


class TestScenarioDifficultyOrdering:
    """Figure 5: view-unionable is harder than unionable for instance methods."""

    def test_view_unionable_not_easier_than_unionable(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig(seed=31))
        matcher = ComaInstanceMatcher(sample_size=100)

        def mean_recall(scenario):
            pairs = fabricator.fabricate(small_seed_table, scenarios=[scenario])
            # restrict to verbatim-instance variants for a fair comparison
            pairs = [p for p in pairs if not p.variant.noisy_instances][:4]
            recalls = []
            for pair in pairs:
                result = matcher.get_matches(pair.source, pair.target)
                recalls.append(recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth))
            return sum(recalls) / len(recalls)

        assert mean_recall(Scenario.UNIONABLE) >= mean_recall(Scenario.VIEW_UNIONABLE) - 0.15


class TestCuratedDatasets:
    def test_magellan_schema_methods_perfect(self):
        """Table IV: schema-based methods reach recall 1.0 on Magellan pairs."""
        pair = magellan_pairs(num_rows=60)[0]
        for matcher in (CupidMatcher(), ComaSchemaMatcher()):
            result = matcher.get_matches(pair.source, pair.target)
            assert recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth) == 1.0

    def test_ing2_distribution_based_beats_schema_based(self):
        """Table IV: the distribution-based method wins on ING#2."""
        pair = ing_application_pair(num_rows=80)
        distribution = DistributionBasedMatcher(phase1_threshold=0.3, phase2_threshold=0.3, sample_size=100)
        schema = ComaSchemaMatcher()
        recall_distribution = recall_at_ground_truth(
            distribution.get_matches(pair.source, pair.target).ranked_pairs(), pair.ground_truth
        )
        recall_schema = recall_at_ground_truth(
            schema.get_matches(pair.source, pair.target).ranked_pairs(), pair.ground_truth
        )
        assert recall_distribution > recall_schema

    def test_wikidata_instance_methods_beat_schema_methods_on_joinable(self):
        """Figure 7: on joinable WikiData pairs the instance-based methods
        reach high recall thanks to value overlap, while schema-based methods
        miss the renamed columns."""
        pairs = {pair.scenario: pair for pair in wikidata_pairs(num_rows=80)}
        joinable = pairs[Scenario.JOINABLE]
        instance_result = ComaInstanceMatcher(sample_size=100).get_matches(
            joinable.source, joinable.target
        )
        schema_result = SimilarityFloodingMatcher().get_matches(joinable.source, joinable.target)
        instance_recall = recall_at_ground_truth(
            instance_result.ranked_pairs(), joinable.ground_truth
        )
        schema_recall = recall_at_ground_truth(schema_result.ranked_pairs(), joinable.ground_truth)
        assert instance_recall >= 0.7
        assert instance_recall >= schema_recall


class TestRunnerEndToEnd:
    def test_runner_over_fabricated_grid(self, small_seed_table):
        fabricator = Fabricator(FabricationConfig(seed=13))
        pairs = fabricator.fabricate(small_seed_table, scenarios=[Scenario.UNIONABLE])[:4]
        grids = {
            "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
            "Cupid": ParameterGrid("Cupid", CupidMatcher, {"th_accept": (0.5, 0.7)}),
        }
        runner = ExperimentRunner(grids=grids)
        results = runner.run_all(pairs)
        assert len(results) == (1 + 2) * 4
        stats = results.boxplot_by_method_and_scenario()
        assert ("ComaSchema", "unionable") in stats
        assert 0.0 <= stats[("ComaSchema", "unionable")].median <= 1.0

    def test_noisy_schema_degrades_schema_methods(self, small_seed_table, noisy_unionable_pair, unionable_pair):
        """Figure 4: schema-based methods lose recall when schemata are noisy."""
        matcher = SimilarityFloodingMatcher()
        clean = run_single_experiment(matcher, unionable_pair).recall_at_ground_truth
        noisy = run_single_experiment(matcher, noisy_unionable_pair).recall_at_ground_truth
        assert clean >= noisy
