"""Ablation — composing matchers (the paper's "one size does not fit all" lesson).

Section IX concludes that composing matching methods (COMA-style) "should be
the preferred way in dataset discovery pipelines".  This ablation compares a
schema-only matcher, an instance-only matcher and their ensemble across the
noisy-schema fabricated pairs of all four scenarios: the ensemble should be
more robust than either member alone (its mean recall is at least close to
the better member and clearly above the weaker one).
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import fabricated_pairs, print_report
from repro.experiments.reports import format_table
from repro.experiments.runner import run_single_experiment
from repro.fabrication.pairs import Scenario
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


def _pairs():
    pairs = []
    for scenario in Scenario:
        pairs.extend(fabricated_pairs(scenario.value, sources=("tpcdi",)))
    return pairs


def _evaluate(pairs) -> dict[str, float]:
    schema_only = ComaSchemaMatcher()
    instance_only = JaccardLevenshteinMatcher(threshold=0.8, sample_size=60)
    ensemble = EnsembleMatcher(
        [ComaSchemaMatcher(), JaccardLevenshteinMatcher(threshold=0.8, sample_size=60)]
    )
    means = {}
    for matcher in (schema_only, instance_only, ensemble):
        recalls = [
            run_single_experiment(matcher, pair).recall_at_ground_truth for pair in pairs
        ]
        means[matcher.name] = statistics.fmean(recalls)
    return means


def test_ablation_ensemble_composition(benchmark):
    pairs = _pairs()
    means = benchmark.pedantic(_evaluate, args=(pairs,), rounds=1, iterations=1)
    print_report(
        "Ablation — schema-only vs instance-only vs ensemble (mean recall@GT)",
        format_table(["Matcher", "Mean recall@GT"], [[k, f"{v:.3f}"] for k, v in means.items()]),
    )

    weakest = min(means["ComaSchema"], means["JaccardLevenshtein"])
    strongest = max(means["ComaSchema"], means["JaccardLevenshtein"])
    # The ensemble is clearly better than the weaker member ...
    assert means["Ensemble"] >= weakest
    # ... and competitive with the stronger one.
    assert means["Ensemble"] >= strongest - 0.1
    benchmark.extra_info["mean_recall"] = means
