"""Ablation — eTuner-style auto-tuning vs untuned / badly tuned parameters.

The paper notes that its grid search "exploited the ground truth" and that in
the wild one should expect lower effectiveness; eTuner's remedy — tuning on
synthetically fabricated scenarios — is implemented in :mod:`repro.tuning`.
This ablation tunes the Jaccard–Levenshtein baseline's threshold on pairs
fabricated from one seed table, then evaluates the tuned configuration on a
*fresh* fabricated workload: the tuned threshold must not lose to the worst
grid configuration and should approach the post-hoc best one.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import print_report, seed_tables
from repro.experiments.parameters import ParameterGrid
from repro.experiments.reports import format_table
from repro.experiments.runner import run_single_experiment
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import Scenario
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.tuning.auto_tune import AutoTuner

GRID = ParameterGrid(
    "JaccardLevenshtein",
    JaccardLevenshteinMatcher,
    {"threshold": (0.4, 0.6, 0.8)},
    fixed={"sample_size": 50},
)


def _holdout_pairs():
    fabricator = Fabricator(FabricationConfig(seed=555))
    pairs = fabricator.fabricate(seed_tables()["tpcdi"], scenarios=[Scenario.UNIONABLE])
    return [pair for pair in pairs if not pair.variant.noisy_instances][:4]


def _evaluate():
    tuner = AutoTuner(
        fabrication_config=FabricationConfig(seed=111),
        scenarios=(Scenario.UNIONABLE,),
        pairs_per_scenario=3,
    )
    outcome = tuner.tune(GRID, seed_tables()["tpcdi"])

    holdout = _holdout_pairs()
    per_configuration = {}
    for parameters in GRID.configurations():
        matcher = GRID.factory(**parameters)
        recalls = [run_single_experiment(matcher, pair).recall_at_ground_truth for pair in holdout]
        per_configuration[parameters["threshold"]] = statistics.fmean(recalls)
    tuned_recall = per_configuration[outcome.best_parameters["threshold"]]
    return outcome, per_configuration, tuned_recall


def test_ablation_autotuning_transfers(benchmark):
    outcome, per_configuration, tuned_recall = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    rows = [[f"threshold={t}", f"{score:.3f}"] for t, score in sorted(per_configuration.items())]
    rows.append([f"auto-tuned (threshold={outcome.best_parameters['threshold']})", f"{tuned_recall:.3f}"])
    print_report("Ablation — auto-tuned threshold vs grid on a holdout workload", format_table(["Configuration", "Mean recall@GT"], rows))

    best = max(per_configuration.values())
    worst = min(per_configuration.values())
    # The configuration chosen on fabricated data transfers to the holdout:
    # never worse than the worst grid point, close to the post-hoc best.
    assert tuned_recall >= worst
    assert tuned_recall >= best - 0.15
    benchmark.extra_info["tuned_threshold"] = outcome.best_parameters["threshold"]
    benchmark.extra_info["holdout_recall_by_threshold"] = per_configuration
