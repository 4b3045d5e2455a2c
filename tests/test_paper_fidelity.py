"""Pinned paper-fidelity numbers (ROADMAP 5e).

Valentine's headline metric is Recall@ground-truth per matcher and scenario
class.  This grid runs the 8 registered matchers over one fabricated pair of
each of the 4 scenario classes (one fixed 60-row source, fixed seeds, the
shared light configs) and compares the number of ground-truth pairs each
ranking recovers with ``tests/golden/paper_fidelity.json``, within one pair.
A matcher-kernel or payload-format rewrite that moves matcher *quality* —
not just speed — fails here; nothing else in tier-1 would notice.

The golden file is generated by a commit *before* the rewrite it guards::

    PYTHONPATH=<that commit>/src:tests python tests/test_paper_fidelity.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.fabrication.pairs import DatasetPair, NoiseVariant
from repro.fabrication.scenarios import (
    fabricate_joinable,
    fabricate_semantically_joinable,
    fabricate_unionable,
    fabricate_view_unionable,
)
from repro.matchers.registry import available_matchers, create_matcher
from repro.metrics.ranking import recall_at_ground_truth

GOLDEN = Path(__file__).parent / "golden" / "paper_fidelity.json"

#: Ground-truth pairs a ranking may gain or lose before the grid fails.
TOLERANCE_PAIRS = 1


def scenario_pairs() -> dict[str, DatasetPair]:
    """One fabricated pair per scenario class, noisy where the class allows."""
    source = tpcdi_prospect_table(num_rows=60, seed=3)
    noisy_schema = NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES
    noisy_both = NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES
    return {
        "unionable": fabricate_unionable(source, noisy_schema, 0.5, random.Random(11)),
        "view_unionable": fabricate_view_unionable(source, noisy_both, 0.5, random.Random(12)),
        "joinable": fabricate_joinable(source, noisy_schema, 0.5, random.Random(13)),
        "semantically_joinable": fabricate_semantically_joinable(
            source, noisy_both, 0.5, random.Random(14)
        ),
    }


def recovered_pairs(method: str, pair: DatasetPair) -> dict[str, int]:
    """Ground-truth pairs in the top-|ground truth| of *method*'s ranking."""
    matcher = create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])
    ranked = matcher.get_matches(pair.source, pair.target).ranked_pairs()
    recall = recall_at_ground_truth(ranked, pair.ground_truth)
    return {
        "recovered": round(recall * pair.ground_truth_size),
        "ground_truth": pair.ground_truth_size,
    }


@pytest.fixture(scope="module")
def pairs() -> dict[str, DatasetPair]:
    return scenario_pairs()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, dict[str, int]]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_matcher_and_scenario(golden, pairs):
    assert set(golden) == set(available_matchers())
    assert all(set(row) == set(pairs) for row in golden.values())


@pytest.mark.parametrize("method", sorted(LIGHT_MATCHER_CONFIGS))
def test_recall_at_ground_truth_matches_the_golden_grid(method, golden, pairs):
    for scenario, pair in pairs.items():
        pinned = golden[method][scenario]
        now = recovered_pairs(method, pair)
        assert now["ground_truth"] == pinned["ground_truth"], (method, scenario)
        assert abs(now["recovered"] - pinned["recovered"]) <= TOLERANCE_PAIRS, (
            f"{method} on {scenario}: recovers {now['recovered']} of "
            f"{now['ground_truth']} ground-truth pairs, golden {pinned['recovered']}"
        )


if __name__ == "__main__":
    grid = {
        method: {name: recovered_pairs(method, pair) for name, pair in scenario_pairs().items()}
        for method in sorted(LIGHT_MATCHER_CONFIGS)
    }
    GOLDEN.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
