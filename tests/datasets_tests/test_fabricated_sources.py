"""Tests for the synthetic fabricated dataset sources (TPC-DI, Open Data, ChEMBL)."""

from __future__ import annotations

import pytest

from repro.data.fingerprint import table_content_hash
from repro.data.types import DataType
from repro.datasets.fabricated_sources import (
    chembl_assays_table,
    open_data_table,
    tpcdi_prospect_table,
)


class TestTpcdiProspect:
    def test_shape_in_paper_range(self):
        table = tpcdi_prospect_table(num_rows=200)
        assert 11 <= table.num_columns <= 22
        assert table.num_rows == 200

    def test_expected_columns_and_types(self):
        table = tpcdi_prospect_table(num_rows=50)
        assert "country" in table.column_names
        assert table.column("income").data_type is DataType.INTEGER
        assert table.column("net_worth").data_type is DataType.FLOAT
        assert table.column("last_name").data_type is DataType.STRING

    def test_deterministic(self):
        a = tpcdi_prospect_table(num_rows=30, seed=5)
        b = tpcdi_prospect_table(num_rows=30, seed=5)
        assert table_content_hash(a) == table_content_hash(b)

    def test_different_seeds_differ(self):
        a = tpcdi_prospect_table(num_rows=30, seed=5)
        b = tpcdi_prospect_table(num_rows=30, seed=6)
        assert table_content_hash(a) != table_content_hash(b)


class TestOpenData:
    def test_shape_in_paper_range(self):
        table = open_data_table(num_rows=100)
        assert 26 <= table.num_columns <= 51

    def test_type_mix(self):
        table = open_data_table(num_rows=60)
        types = set(table.schema().values())
        assert DataType.STRING in types
        assert DataType.INTEGER in types
        assert DataType.FLOAT in types
        assert DataType.DATE in types

    def test_some_columns_have_missing_free_structure(self):
        table = open_data_table(num_rows=60)
        assert all(len(column) == 60 for column in table.columns)


class TestChemblAssays:
    def test_shape_in_paper_range(self):
        table = chembl_assays_table(num_rows=100)
        assert 12 <= table.num_columns <= 23

    def test_domain_specific_vocabulary(self):
        table = chembl_assays_table(num_rows=80)
        targets = set(table.column("target_name").values)
        assert targets <= {
            "EGFR", "HER2", "VEGFR2", "BRAF", "MEK1", "CDK4", "CDK6", "PI3K", "AKT1",
            "mTOR", "JAK2", "BTK", "ALK", "ROS1", "KRAS", "TP53", "PARP1", "HDAC1",
            "DNMT1", "PDE5", "ACE", "COX2", "5HT2A", "D2R", "GABA-A",
        }

    def test_missing_values_present(self):
        table = chembl_assays_table(num_rows=200)
        assert table.column("cell_line").missing_count() > 0

    def test_fabrication_grid_runs_on_every_source(self):
        from repro.fabrication.fabricator import FabricationConfig, Fabricator
        from repro.fabrication.pairs import Scenario

        fabricator = Fabricator(FabricationConfig())
        for builder in (tpcdi_prospect_table, open_data_table, chembl_assays_table):
            seed_table = builder(num_rows=40)
            pairs = fabricator.fabricate(seed_table, scenarios=[Scenario.UNIONABLE])
            assert len(pairs) == 12
            for pair in pairs:
                pair.validate()
