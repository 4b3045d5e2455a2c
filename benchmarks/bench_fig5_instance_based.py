"""Figure 5 — effectiveness of instance-based methods per relatedness scenario.

Reproduces the Figure 5 boxplots: the Distribution-based matcher, the
Jaccard–Levenshtein baseline and COMA-Instance on fabricated pairs of all
four scenarios, split by noisy vs. verbatim instances.  The paper's findings
asserted here: view-unionable is harder than unionable (no row overlap to
exploit), and semantically-joinable is harder than joinable (instance noise
breaks value equality).
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import fabricated_pairs, fast_grids, print_report
from repro.experiments.reports import render_boxplot_figure
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentRunner
from repro.fabrication.pairs import Scenario

METHODS = ("DistributionBased", "JaccardLevenshtein", "ComaInstance")


def _pairs():
    pairs = []
    for scenario in Scenario:
        pairs.extend(fabricated_pairs(scenario.value, sources=("tpcdi",)))
    return pairs


def _run(pairs) -> ResultSet:
    grids = {name: grid for name, grid in fast_grids().items() if name in METHODS}
    return ExperimentRunner(grids=grids).run_all(pairs)


def _mean_recall(results: ResultSet, scenario: Scenario) -> float:
    values = results.for_scenario(scenario.value).recall_values()
    return statistics.fmean(values) if values else 0.0


def test_fig5_instance_based_methods(benchmark):
    pairs = _pairs()
    results = benchmark.pedantic(_run, args=(pairs,), rounds=1, iterations=1)
    print_report(
        "Figure 5 — instance-based methods per scenario (recall@GT min/median/max)",
        render_boxplot_figure(results, title="", methods=list(METHODS)),
    )

    unionable = _mean_recall(results, Scenario.UNIONABLE)
    view_unionable = _mean_recall(results, Scenario.VIEW_UNIONABLE)
    joinable = _mean_recall(results, Scenario.JOINABLE)
    semantically_joinable = _mean_recall(results, Scenario.SEMANTICALLY_JOINABLE)

    # Paper: view-unionable is considerably harder than unionable.
    assert view_unionable <= unionable + 0.05
    # Paper: semantically-joinable results are worse than joinable ones.
    assert semantically_joinable <= joinable + 0.05
    # Joinable pairs share verbatim instances, so instance methods do well.
    assert joinable >= 0.5

    benchmark.extra_info["mean_recall_by_scenario"] = {
        "unionable": unionable,
        "view_unionable": view_unionable,
        "joinable": joinable,
        "semantically_joinable": semantically_joinable,
    }
