#!/usr/bin/env python3
"""Quickstart: fabricate a dataset pair, run a matcher, evaluate the ranking.

This is the smallest end-to-end tour of the public API:

1. build a seed table (a synthetic TPC-DI ``Prospect`` stand-in);
2. fabricate a *unionable* dataset pair with noisy schemata (Section IV);
3. run two matching methods and print their ranked matches;
4. score both rankings with Recall@ground-truth (Section II-C).

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import NoiseVariant, Scenario
from repro.fabrication.scenarios import fabricate_unionable
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.metrics.ranking import recall_at_ground_truth

import random


def main() -> None:
    # 1. A seed table: 17 columns of person / address / financial data.
    seed = tpcdi_prospect_table(num_rows=200)
    print(seed.describe())
    print()

    # 2. Fabricate a unionable pair: horizontal split with 50% row overlap and
    #    noisy column names on the target side.
    pair = fabricate_unionable(
        seed,
        NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES,
        row_overlap=0.5,
        rng=random.Random(7),
    )
    print(f"Fabricated pair: {pair.describe()}")
    print(f"Sample of the ground truth: {pair.ground_truth[:5]}")
    print()

    # 3. Run one schema-based and one instance-based matcher.
    for matcher in (ComaSchemaMatcher(), JaccardLevenshteinMatcher(threshold=0.8, sample_size=100)):
        result = matcher.get_matches(pair.source, pair.target)
        recall = recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth)
        print(f"--- {matcher.name} (recall@ground-truth = {recall:.3f}) ---")
        for match in result.top_k(5):
            print(f"  {match.score:.3f}  {match.source.column:18s} ~ {match.target.column}")
        print()

    # 4. The full grid of Figure 3 is one call away.
    fabricator = Fabricator(FabricationConfig())
    pairs = fabricator.fabricate(seed, scenarios=[Scenario.JOINABLE])
    print(f"The fabricator produces {len(pairs)} joinable pairs from this seed table.")


if __name__ == "__main__":
    main()
