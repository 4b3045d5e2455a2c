#!/usr/bin/env python3
"""Dataset discovery pipeline: rank candidate tables in a small data lake.

The paper motivates Valentine with dataset discovery: given a *query* table,
find the tables in a repository that are joinable or unionable with it and
rank them.  This example builds a toy data lake out of the synthetic dataset
sources, then uses the matching methods as the discovery building block the
paper describes:

* a per-column matcher produces ranked column correspondences;
* table-level relatedness is derived from the strength of the best column
  matches (joinability) and from the fraction of query columns that find a
  strong partner (unionability);
* candidate tables are ranked by those scores.

Run with ``python examples/dataset_discovery_pipeline.py``.
"""

from __future__ import annotations

import random

from repro.data.table import Table
from repro.datasets.fabricated_sources import (
    chembl_assays_table,
    open_data_table,
    tpcdi_prospect_table,
)
from repro.datasets.wikidata import wikidata_singers_table
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers.coma.matcher import ComaInstanceMatcher
from repro.matchers.base import MatchResult


def build_data_lake() -> dict[str, Table]:
    """A toy data lake: assorted tables, some related to the query table."""
    rng = random.Random(11)
    prospects = tpcdi_prospect_table(num_rows=150)
    # Two tables derived from the prospects table: one joinable slice (other
    # columns about the same people) and one unionable slice (same columns,
    # other rows).  The rest of the lake is unrelated.
    vertical = split_vertical(prospects, 0.3, rng)
    horizontal = split_horizontal(prospects, 0.0, rng)
    return {
        "prospect_demographics": vertical.second.rename("prospect_demographics"),
        "prospect_batch_2": horizontal.second.rename("prospect_batch_2"),
        "government_contracts": open_data_table(num_rows=150),
        "bioassay_results": chembl_assays_table(num_rows=150),
        "singer_profiles": wikidata_singers_table(num_rows=150),
    }


def joinability_score(result: MatchResult) -> float:
    """Best column-pair similarity: a proxy for 'these tables share a join key'."""
    return result[0].score if len(result) else 0.0


def unionability_score(result: MatchResult, query: Table, threshold: float = 0.55) -> float:
    """Fraction of query columns with a strong partner in the candidate table."""
    best_per_column: dict[str, float] = {}
    for match in result:
        name = match.source.column
        best_per_column[name] = max(best_per_column.get(name, 0.0), match.score)
    strong = sum(1 for score in best_per_column.values() if score >= threshold)
    return strong / query.num_columns if query.num_columns else 0.0


def main() -> None:
    rng = random.Random(3)
    query = split_horizontal(tpcdi_prospect_table(num_rows=150), 0.0, rng).first.rename("query_prospects")
    lake = build_data_lake()
    matcher = ComaInstanceMatcher(sample_size=200)

    print(f"Query table: {query.name} {query.shape}")
    print(f"Data lake: {', '.join(lake)}\n")

    rankings = []
    for name, candidate in lake.items():
        result = matcher.get_matches(query, candidate)
        rankings.append(
            {
                "table": name,
                "joinability": joinability_score(result),
                "unionability": unionability_score(result, query),
                "best_matches": result.top_k(3).ranked_pairs(),
            }
        )

    print("Candidates ranked by joinability (best shared column):")
    for entry in sorted(rankings, key=lambda e: -e["joinability"]):
        print(f"  {entry['table']:24s} joinability={entry['joinability']:.3f}  top={entry['best_matches'][0]}")

    print("\nCandidates ranked by unionability (columns with a strong partner):")
    for entry in sorted(rankings, key=lambda e: -e["unionability"]):
        print(f"  {entry['table']:24s} unionability={entry['unionability']:.3f}")

    best_union = max(rankings, key=lambda e: e["unionability"])
    best_join = max(rankings, key=lambda e: e["joinability"])
    print(
        f"\nDiscovery outcome: '{best_union['table']}' looks unionable with the query, "
        f"'{best_join['table']}' is the best join candidate."
    )


if __name__ == "__main__":
    main()
