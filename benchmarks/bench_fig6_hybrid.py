"""Figure 6 — effectiveness of hybrid methods (EmbDI, SemProp) per scenario.

Reproduces the Figure 6 boxplots on fabricated pairs.  Asserted findings from
the paper: SemProp's pre-trained-embedding matching is the weakest of all
evaluated methods, EmbDI outperforms SemProp but stays inconsistent, and
EmbDI reaches acceptable quality only on joinable pairs (where instance
values overlap verbatim).
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import fabricated_pairs, fast_grids, print_report
from repro.experiments.reports import render_boxplot_figure
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentRunner
from repro.fabrication.pairs import Scenario

METHODS = ("EmbDI", "SemProp")


def _pairs():
    pairs = []
    for scenario in Scenario:
        pairs.extend(fabricated_pairs(scenario.value, sources=("chembl",)))
    return pairs


def _run(pairs) -> ResultSet:
    grids = {name: grid for name, grid in fast_grids().items() if name in METHODS}
    return ExperimentRunner(grids=grids).run_all(pairs)


def test_fig6_hybrid_methods(benchmark):
    pairs = _pairs()
    results = benchmark.pedantic(_run, args=(pairs,), rounds=1, iterations=1)
    print_report(
        "Figure 6 — hybrid methods per scenario (recall@GT min/median/max)",
        render_boxplot_figure(results, title="", methods=list(METHODS)),
    )

    semprop_mean = statistics.fmean(results.for_method("SemProp").recall_values())
    embdi_mean = statistics.fmean(results.for_method("EmbDI").recall_values())
    embdi_joinable = statistics.fmean(
        results.for_method("EmbDI").for_scenario(Scenario.JOINABLE.value).recall_values()
    )
    embdi_sem_joinable = statistics.fmean(
        results.for_method("EmbDI").for_scenario(Scenario.SEMANTICALLY_JOINABLE.value).recall_values()
    )

    # Paper: SemProp's effectiveness is unexpectedly low over all scenarios
    # (pre-trained vectors carry no domain signal on ChEMBL-like data): its
    # mean recall stays mediocre and no scenario median comes close to 1.
    assert semprop_mean <= 0.65
    semprop_medians = [
        stats.median
        for (method, _), stats in results.boxplot_by_method_and_scenario().items()
        if method == "SemProp"
    ]
    assert all(median <= 0.9 for median in semprop_medians)
    # Paper: EmbDI provides acceptable results on joinable pairs (verbatim
    # instance overlap is what its local embeddings rely on) ...
    assert embdi_joinable >= 0.5
    # ... and degrades once instance noise breaks that overlap.
    assert embdi_joinable >= embdi_sem_joinable - 0.05

    benchmark.extra_info["semprop_mean_recall"] = semprop_mean
    benchmark.extra_info["embdi_mean_recall"] = embdi_mean
    benchmark.extra_info["embdi_joinable_mean_recall"] = embdi_joinable
