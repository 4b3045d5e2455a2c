"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper at
laptop scale: the dataset sizes and parameter grids are reduced (see
``FAST_*`` constants below), but the *structure* of each experiment — which
methods run on which fabricated scenarios and how the results are aggregated
— follows the paper exactly.  The reproduced rows/series are printed to
stdout (run with ``-s``), written to ``benchmarks/reports/`` and attached to
the pytest-benchmark ``extra_info`` for machine-readable inspection.
"""

from __future__ import annotations

import functools

import pytest

from repro.datasets.fabricated_sources import (
    chembl_assays_table,
    open_data_table,
    tpcdi_prospect_table,
)
from repro.experiments.parameters import ParameterGrid
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import Scenario
from repro.matchers.coma.matcher import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.distribution_based.matcher import DistributionBasedMatcher
from repro.matchers.embdi.matcher import EmbDIMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.matchers.similarity_flooding.matcher import SimilarityFloodingMatcher

#: Row count of the seed tables used by the benchmark harness.
FAST_ROWS = 60
#: Number of fabricated pairs sampled per scenario per seed source.
PAIRS_PER_SCENARIO = 4


def fast_grids() -> dict[str, ParameterGrid]:
    """One representative configuration per method, sized for benchmarks."""
    return {
        "Cupid": ParameterGrid("Cupid", CupidMatcher, {}, fixed={"th_accept": 0.7}),
        "SimilarityFlooding": ParameterGrid("SimilarityFlooding", SimilarityFloodingMatcher, {}),
        "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
        "ComaInstance": ParameterGrid(
            "ComaInstance", ComaInstanceMatcher, {}, fixed={"threshold": 0.0, "sample_size": 200}
        ),
        "DistributionBased": ParameterGrid(
            "DistributionBased",
            DistributionBasedMatcher,
            {},
            fixed={"phase1_threshold": 0.15, "phase2_threshold": 0.15, "sample_size": 200},
        ),
        "SemProp": ParameterGrid(
            "SemProp", SemPropMatcher, {}, fixed={"num_permutations": 32, "sample_size": 200}
        ),
        "EmbDI": ParameterGrid(
            "EmbDI",
            EmbDIMatcher,
            {},
            fixed={"dimensions": 32, "sentence_length": 16, "walks_per_node": 4, "epochs": 2, "max_rows": 60},
        ),
        "JaccardLevenshtein": ParameterGrid(
            "JaccardLevenshtein",
            JaccardLevenshteinMatcher,
            {},
            fixed={"threshold": 0.8, "sample_size": 60},
        ),
    }


@functools.lru_cache(maxsize=None)
def seed_tables() -> dict[str, object]:
    """The three fabricated-source seed tables (TPC-DI, Open Data, ChEMBL)."""
    return {
        "tpcdi": tpcdi_prospect_table(num_rows=FAST_ROWS),
        "opendata": open_data_table(num_rows=FAST_ROWS),
        "chembl": chembl_assays_table(num_rows=FAST_ROWS),
    }


@functools.lru_cache(maxsize=None)
def fabricated_pairs(scenario_value: str, sources: tuple[str, ...] = ("tpcdi", "chembl")):
    """A small, variant-diverse sample of fabricated pairs for one scenario.

    The full Figure 3 grid is fabricated and then sampled (deterministically)
    so that the benchmark sees a mix of overlap settings and noise variants
    rather than only the first corner of the grid.
    """
    import random

    scenario = Scenario(scenario_value)
    fabricator = Fabricator(FabricationConfig(seed=2021))
    pairs = []
    for source_name in sources:
        seed_table = seed_tables()[source_name]
        source_pairs = fabricator.fabricate(seed_table, scenarios=[scenario])
        sample_size = min(PAIRS_PER_SCENARIO, len(source_pairs))
        pairs.extend(random.Random(0).sample(source_pairs, sample_size))
    return pairs


def print_report(title: str, body: str) -> None:
    """Print a reproduced artefact and persist it under ``benchmarks/reports/``.

    pytest only shows captured stdout for failing tests, so every reproduced
    table/figure is also written to a text file named after its title.
    """
    import pathlib
    import re

    banner = "=" * len(title)
    text = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(text)
    reports_dir = pathlib.Path(__file__).parent / "reports"
    reports_dir.mkdir(exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:60]
    (reports_dir / f"{slug}.txt").write_text(text, encoding="utf-8")
