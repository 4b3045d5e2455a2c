"""Ablation — ranked evaluation (Recall@GT) vs classic 1-1 precision/recall.

Section II-C argues that ranked evaluation suits dataset discovery better
than thresholded 1-1 match sets: a threshold that is too strict destroys
recall, one that is too lax destroys precision, while the ranking-based
measure needs no threshold at all.  This ablation quantifies that on
noisy-schema unionable pairs: the 1-1 F1 obtained from thresholding the same
ranking varies wildly with the threshold, whereas Recall@GT is
threshold-free and sits at or above the best thresholded F1's recall.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import fabricated_pairs, print_report
from repro.experiments.reports import format_table
from repro.fabrication.pairs import Scenario
from repro.matchers.coma.matcher import ComaInstanceMatcher
from repro.metrics.one_to_one import precision_recall_f1
from repro.metrics.ranking import recall_at_ground_truth

THRESHOLDS = (0.3, 0.5, 0.7, 0.9)


def _evaluate():
    pairs = fabricated_pairs(Scenario.UNIONABLE.value, sources=("tpcdi",))
    matcher = ComaInstanceMatcher(sample_size=150)
    ranked_scores = []
    f1_by_threshold = {threshold: [] for threshold in THRESHOLDS}
    for pair in pairs:
        result = matcher.get_matches(pair.source, pair.target)
        ranked_scores.append(recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth))
        for threshold in THRESHOLDS:
            predicted = result.filter_threshold(threshold).one_to_one().ranked_pairs()
            f1_by_threshold[threshold].append(
                precision_recall_f1(predicted, pair.ground_truth).f1
            )
    return (
        statistics.fmean(ranked_scores),
        {threshold: statistics.fmean(values) for threshold, values in f1_by_threshold.items()},
    )


def test_ablation_ranked_vs_one_to_one(benchmark):
    ranked_mean, f1_means = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    rows = [["Recall@GT (no threshold)", f"{ranked_mean:.3f}"]]
    rows += [[f"1-1 F1 @ threshold {t}", f"{score:.3f}"] for t, score in f1_means.items()]
    print_report("Ablation — ranked metric vs thresholded 1-1 F1 (unionable, noisy schema)", format_table(["Evaluation", "Mean"], rows))

    best_f1 = max(f1_means.values())
    worst_f1 = min(f1_means.values())
    # Thresholded 1-1 evaluation is highly sensitive to the threshold choice...
    assert best_f1 - worst_f1 >= 0.2
    # ...while the ranking-based measure needs no threshold and is competitive
    # with the best threshold.
    assert ranked_mean >= best_f1 - 0.15
    benchmark.extra_info["recall_at_gt"] = ranked_mean
    benchmark.extra_info["f1_by_threshold"] = f1_means
