"""Tests for the sensitivity (Table III) and efficiency (Table V) analyses."""

from __future__ import annotations

import pytest

from repro.experiments.efficiency import measure_runtimes
from repro.experiments.parameters import ParameterGrid
from repro.experiments.sensitivity import parameter_sensitivity, sensitivity_table
from repro.matchers.coma import ComaSchemaMatcher
from repro.matchers.cupid import CupidMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


@pytest.fixture
def jl_grid():
    return ParameterGrid(
        "JaccardLevenshtein",
        JaccardLevenshteinMatcher,
        {"threshold": (0.4, 0.6, 0.8)},
        fixed={"sample_size": 8},
    )


class TestSensitivity:
    def test_unknown_parameter_rejected(self, jl_grid, unionable_pair):
        with pytest.raises(KeyError):
            parameter_sensitivity(jl_grid, "bogus", [unionable_pair])

    def test_result_structure(self, jl_grid, unionable_pair, noisy_unionable_pair):
        result = parameter_sensitivity(jl_grid, "threshold", [unionable_pair, noisy_unionable_pair])
        assert result.method == "JaccardLevenshtein"
        assert result.parameter == "threshold"
        assert set(result.per_pair_std) == {unionable_pair.name, noisy_unionable_pair.name}
        assert 0.0 <= result.min_std <= result.median_std <= result.max_std

    def test_baseline_override(self, unionable_pair):
        grid = ParameterGrid(
            "Cupid",
            CupidMatcher,
            {"th_accept": (0.3, 0.5, 0.7), "w_struct": (0.0, 0.2)},
        )
        result = parameter_sensitivity(
            grid, "th_accept", [unionable_pair], baseline={"w_struct": 0.2}
        )
        assert result.parameter == "th_accept"

    def test_sensitivity_table_filters_small_grids(self, unionable_pair, jl_grid):
        grids = {
            "JaccardLevenshtein": jl_grid,
            "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
        }
        rows = sensitivity_table(grids, [unionable_pair], min_values=3)
        assert [row.method for row in rows] == ["JaccardLevenshtein"]


class TestEfficiency:
    def test_measurements_sorted_by_runtime(self, unionable_pair):
        grids = {
            "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
            "JaccardLevenshtein": ParameterGrid(
                "JaccardLevenshtein",
                JaccardLevenshteinMatcher,
                {},
                fixed={"threshold": 0.8, "sample_size": 50},
            ),
        }
        measurements = measure_runtimes(grids, [unionable_pair])
        assert len(measurements) == 2
        assert measurements[0].average_seconds <= measurements[1].average_seconds
        assert all(m.average_seconds > 0 for m in measurements)

    def test_per_pair_runtimes_recorded(self, unionable_pair, noisy_unionable_pair):
        grids = {
            "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
        }
        measurements = measure_runtimes(grids, [unionable_pair, noisy_unionable_pair])
        assert set(measurements[0].per_pair_seconds) == {
            unionable_pair.name,
            noisy_unionable_pair.name,
        }
