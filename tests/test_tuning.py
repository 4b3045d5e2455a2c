"""Tests for eTuner-style automatic parameter tuning."""

from __future__ import annotations

import pytest

from repro.experiments.parameters import ParameterGrid
from repro.fabrication.fabricator import FabricationConfig
from repro.fabrication.pairs import Scenario
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.tuning.auto_tune import AutoTuner


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner(
        fabrication_config=FabricationConfig(seed=7),
        scenarios=(Scenario.UNIONABLE,),
        pairs_per_scenario=2,
    )


class TestAutoTunerConstruction:
    def test_invalid_pairs_per_scenario(self):
        with pytest.raises(ValueError):
            AutoTuner(pairs_per_scenario=0)

    def test_workload_size(self, tuner, small_seed_table):
        pairs = tuner.fabricate_workload(small_seed_table)
        assert len(pairs) == 2
        assert all(pair.scenario is Scenario.UNIONABLE for pair in pairs)


class TestTuning:
    def test_tune_returns_best_of_leaderboard(self, tuner, small_seed_table):
        grid = ParameterGrid(
            "JaccardLevenshtein",
            JaccardLevenshteinMatcher,
            {"threshold": (0.4, 0.8)},
            fixed={"sample_size": 30},
        )
        outcome = tuner.tune(grid, small_seed_table)
        assert outcome.method == "JaccardLevenshtein"
        assert len(outcome.leaderboard) == 2
        best_score = outcome.leaderboard[0][1]
        assert outcome.best_mean_recall == best_score
        assert all(best_score >= score for _, score in outcome.leaderboard)
        assert outcome.best_parameters["threshold"] in (0.4, 0.8)

    def test_evaluate_configuration_bounded(self, tuner, small_seed_table):
        grid = ParameterGrid("Cupid", CupidMatcher, {})
        pairs = tuner.fabricate_workload(small_seed_table)
        score = tuner.evaluate_configuration(grid, {}, pairs)
        assert 0.0 <= score <= 1.0
