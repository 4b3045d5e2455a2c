"""Table III — sensitivity of grid-searched methods to parameter changes.

The paper varies one parameter at a time (ceteris paribus) on the ChEMBL
pairs and reports the min / median / max standard deviation of
recall@ground-truth per dataset pair.  This benchmark reproduces the analysis
at laptop scale (fewer ChEMBL-like pairs, thinner value lists) and checks the
paper's two qualitative observations: the median standard deviation is close
to zero, while the maximum can be considerable.
"""

from __future__ import annotations

from benchmarks.conftest import PAIRS_PER_SCENARIO, print_report, seed_tables
from repro.experiments.parameters import ParameterGrid
from repro.experiments.reports import render_sensitivity_table
from repro.experiments.sensitivity import sensitivity_table
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import Scenario
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


def _chembl_pairs():
    fabricator = Fabricator(FabricationConfig(seed=3))
    pairs = fabricator.fabricate(seed_tables()["chembl"], scenarios=[Scenario.UNIONABLE])
    return pairs[:PAIRS_PER_SCENARIO]


def _grids():
    return {
        "Cupid": ParameterGrid("Cupid", CupidMatcher, {"th_accept": (0.3, 0.5, 0.8)}),
        "JaccardLevenshtein": ParameterGrid(
            "JaccardLevenshtein",
            JaccardLevenshteinMatcher,
            {"threshold": (0.4, 0.6, 0.8)},
            fixed={"sample_size": 40},
        ),
    }


def test_table3_parameter_sensitivity(benchmark):
    pairs = _chembl_pairs()
    grids = _grids()
    results = benchmark.pedantic(sensitivity_table, args=(grids, pairs), rounds=1, iterations=1)
    print_report(
        "Table III — impact of parameters (std. dev. of recall@GT across ChEMBL-like pairs)",
        render_sensitivity_table(results),
    )

    assert {result.method for result in results} == {"Cupid", "JaccardLevenshtein"}
    for result in results:
        # Paper: minimum and median std. dev. are (close to) zero ...
        assert result.min_std <= 0.15
        assert result.median_std <= 0.3
        # ... and all values stay in the feasible range.
        assert 0.0 <= result.max_std <= 0.5 + 1e-9
    benchmark.extra_info["rows"] = [
        {"method": r.method, "parameter": r.parameter, "median_std": r.median_std, "max_std": r.max_std}
        for r in results
    ]
