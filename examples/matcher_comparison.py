#!/usr/bin/env python3
"""Compare all seven matching methods across the four relatedness scenarios.

A miniature version of the paper's main evaluation (Figures 4–6): fabricate a
handful of dataset pairs per scenario from a ChEMBL-like seed table, run every
bundled matching method on each pair and print the per-scenario summaries plus
the runtime comparison (Table V style).

Run with ``python examples/matcher_comparison.py`` (takes a few minutes: the
instance-based methods really are orders of magnitude slower, which is one of
the paper's findings).
"""

from __future__ import annotations

import random

from repro.datasets.fabricated_sources import chembl_assays_table
from repro.experiments.efficiency import measure_runtimes
from repro.experiments.parameters import ParameterGrid
from repro.experiments.reports import render_boxplot_figure, render_runtime_table
from repro.experiments.runner import ExperimentRunner
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import Scenario
from repro.matchers.coma.matcher import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.distribution_based.matcher import DistributionBasedMatcher
from repro.matchers.embdi.matcher import EmbDIMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.matchers.similarity_flooding.matcher import SimilarityFloodingMatcher


def comparison_grids() -> dict[str, ParameterGrid]:
    """One representative, laptop-sized configuration per method."""
    return {
        "Cupid": ParameterGrid("Cupid", CupidMatcher, {}),
        "SimilarityFlooding": ParameterGrid("SimilarityFlooding", SimilarityFloodingMatcher, {}),
        "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}),
        "ComaInstance": ParameterGrid("ComaInstance", ComaInstanceMatcher, {}, fixed={"sample_size": 150}),
        "DistributionBased": ParameterGrid(
            "DistributionBased", DistributionBasedMatcher, {}, fixed={"sample_size": 150}
        ),
        "SemProp": ParameterGrid("SemProp", SemPropMatcher, {}, fixed={"num_permutations": 32}),
        "EmbDI": ParameterGrid(
            "EmbDI",
            EmbDIMatcher,
            {},
            fixed={"dimensions": 32, "sentence_length": 16, "walks_per_node": 3, "epochs": 2, "max_rows": 60},
        ),
        "JaccardLevenshtein": ParameterGrid(
            "JaccardLevenshtein", JaccardLevenshteinMatcher, {}, fixed={"threshold": 0.8, "sample_size": 60}
        ),
    }


def main() -> None:
    seed = chembl_assays_table(num_rows=60)
    fabricator = Fabricator(FabricationConfig(seed=42))
    rng = random.Random(0)

    pairs = []
    for scenario in Scenario:
        scenario_pairs = fabricator.fabricate(seed, scenarios=[scenario])
        pairs.extend(rng.sample(scenario_pairs, 2))
    print(f"Fabricated {len(pairs)} dataset pairs from {seed.name} ({seed.shape}).\n")

    grids = comparison_grids()
    runner = ExperimentRunner(grids=grids)
    print(f"Running {runner.total_runs(len(pairs))} experiments ...\n")
    results = runner.run_all(pairs)

    print(render_boxplot_figure(results, title="Recall@ground-truth per method and scenario"))

    print("\nRuntime comparison (average seconds per pair):")
    measurements = measure_runtimes(grids, pairs[:2])
    print(render_runtime_table(measurements))

    best = results.mean_recall_by_method()
    winner = max(best, key=best.get)
    print(f"\nHighest mean recall@ground-truth on this workload: {winner} ({best[winner]:.3f})")
    print("As in the paper: no single method wins everywhere — inspect the per-scenario table above.")


if __name__ == "__main__":
    main()
