"""Shared fixtures for the test suite: small deterministic tables and pairs."""

from __future__ import annotations

import random

import pytest

from repro.data.table import Column, Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import NoiseVariant, Scenario
from repro.fabrication.scenarios import fabricate_unionable


@pytest.fixture
def clients_table() -> Table:
    """The small "clients" table from Figure 2 of the paper."""
    return Table(
        "clients",
        [
            Column("Client", ["J. Watts", "B. Mei", "Q. Man", "A. Doe", "L. Chen", "R. Fox"]),
            Column("Street", ["2, Tea St.", "8, Fly St.", "3, Bay St.", "1, Oak Ave", "9, Elm St.", "4, Pine Rd"]),
            Column("PO", [39499, 34682, 35472, 40001, 31234, 38888]),
            Column("Country", ["USA", "China", "USA", "UK", "China", "Canada"]),
        ],
    )


@pytest.fixture
def offices_table() -> Table:
    """A second Figure 2 style table, joinable with ``clients_table`` on country."""
    return Table(
        "offices",
        [
            Column("Cntr", ["USA", "China", "UK", "Canada", "Germany", "France"]),
            Column("C_Office", [68346, 74742, 55121, 61200, 70010, 69999]),
            Column("Head", ["B. Stan", "J. Ki", "M. Low", "T. Roy", "H. Graf", "C. Blanc"]),
        ],
    )


@pytest.fixture
def numeric_table() -> Table:
    """A purely numeric table for distribution/type oriented tests."""
    return Table(
        "numbers",
        [
            Column("small", [1, 2, 3, 4, 5, 6, 7, 8]),
            Column("large", [100, 200, 300, 400, 500, 600, 700, 800]),
            Column("ratio", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
        ],
    )


@pytest.fixture(scope="session")
def small_seed_table() -> Table:
    """A small TPC-DI style seed table shared across fabrication tests."""
    return tpcdi_prospect_table(num_rows=80, seed=3)


@pytest.fixture(scope="session")
def unionable_pair(small_seed_table):
    """A verbatim unionable pair fabricated from the seed table."""
    rng = random.Random(5)
    return fabricate_unionable(
        small_seed_table,
        NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES,
        row_overlap=0.5,
        rng=rng,
    )


@pytest.fixture(scope="session")
def noisy_unionable_pair(small_seed_table):
    """A noisy-schema unionable pair fabricated from the seed table."""
    rng = random.Random(6)
    return fabricate_unionable(
        small_seed_table,
        NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES,
        row_overlap=0.5,
        rng=rng,
    )


@pytest.fixture(scope="session")
def scenario_pairs(small_seed_table):
    """One fabricated pair per relatedness scenario (for integration tests)."""
    fabricator = Fabricator(FabricationConfig(seed=9))
    pairs = {}
    for scenario in Scenario:
        pairs[scenario] = fabricator.fabricate(small_seed_table, scenarios=[scenario])[0]
    return pairs
