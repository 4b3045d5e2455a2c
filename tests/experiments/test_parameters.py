"""Tests for the Table II parameter grids."""

from __future__ import annotations

import pytest

from repro.experiments.parameters import (
    ParameterGrid,
    default_parameter_grids,
    total_configurations,
)
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


class TestParameterGrid:
    def test_configurations_cartesian_product(self):
        grid = ParameterGrid(
            "JL", JaccardLevenshteinMatcher, {"threshold": (0.4, 0.5)}, fixed={"sample_size": 10}
        )
        configs = list(grid.configurations())
        assert len(configs) == 2
        assert all(config["sample_size"] == 10 for config in configs)

    def test_empty_grid_yields_fixed_config(self):
        grid = ParameterGrid("JL", JaccardLevenshteinMatcher, {}, fixed={"threshold": 0.7})
        configs = list(grid.configurations())
        assert configs == [{"threshold": 0.7}]

    def test_matchers_instantiated_with_parameters(self):
        grid = ParameterGrid("JL", JaccardLevenshteinMatcher, {"threshold": (0.4, 0.8)})
        for params, matcher in grid.matchers():
            assert isinstance(matcher, JaccardLevenshteinMatcher)
            assert matcher.threshold == params["threshold"]

    def test_size(self):
        grid = ParameterGrid("CU", CupidMatcher, {"w_struct": (0.0, 0.2), "th_accept": (0.3, 0.4, 0.5)})
        assert grid.size() == 6
        assert len(list(grid.matchers())) == 6


class TestDefaultGrids:
    def test_all_paper_methods_present(self):
        grids = default_parameter_grids()
        expected = {
            "Cupid",
            "SimilarityFlooding",
            "ComaSchema",
            "ComaInstance",
            "DistributionBased#1",
            "DistributionBased#2",
            "SemProp",
            "EmbDI",
            "JaccardLevenshtein",
        }
        assert expected == set(grids)

    def test_cupid_grid_matches_table_two(self):
        grid = default_parameter_grids()["Cupid"]
        assert grid.grid["leaf_w_struct"] == (0.0, 0.2, 0.4, 0.6)
        assert grid.grid["w_struct"] == (0.0, 0.2, 0.4, 0.6)
        assert grid.grid["th_accept"] == (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

    def test_distribution_grids_match_table_two(self):
        grids = default_parameter_grids()
        strict = grids["DistributionBased#1"]
        lenient = grids["DistributionBased#2"]
        assert strict.grid["phase1_threshold"] == (0.1, 0.15, 0.2)
        assert lenient.grid["phase1_threshold"] == (0.3, 0.4, 0.5)

    def test_jaccard_levenshtein_grid(self):
        grid = default_parameter_grids()["JaccardLevenshtein"]
        assert grid.grid["threshold"] == (0.4, 0.5, 0.6, 0.7, 0.8)

    def test_full_grid_configuration_count_is_paper_scale(self):
        """Table II yields ~135 configurations across methods."""
        total = total_configurations(default_parameter_grids())
        assert 100 <= total <= 160

    def test_fast_grids_are_thin_but_complete(self):
        fast = default_parameter_grids(fast=True)
        assert set(fast) == set(default_parameter_grids())
        assert total_configurations(fast) <= 20

    def test_every_configuration_instantiates(self):
        for grid in default_parameter_grids(fast=True).values():
            for _, matcher in grid.matchers():
                assert matcher.name
