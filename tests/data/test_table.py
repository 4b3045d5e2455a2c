"""Tests for the Table/Column relational substrate."""

from __future__ import annotations

import random

import pytest

from repro.data.table import Column, ColumnRef, Table
from repro.data.types import DataType


class TestColumn:
    def test_infers_type(self):
        column = Column("age", [1, 2, 3])
        assert column.data_type is DataType.INTEGER

    def test_unique_values_excludes_missing(self):
        column = Column("c", ["a", "b", "a", None, ""])
        assert column.unique_values() == {"a", "b"}

    def test_non_missing(self):
        column = Column("c", [1, None, 3])
        assert column.non_missing() == [1, 3]

    def test_numeric_values_skips_bad_cells(self):
        column = Column("c", ["1", "oops", "3.5"])
        assert column.numeric_values() == [1.0, 3.5]

    def test_rename_keeps_values(self):
        column = Column("old", [1, 2])
        renamed = column.rename("new")
        assert renamed.name == "new"
        assert renamed.values == [1, 2]

    def test_map_values_preserves_missing(self):
        column = Column("c", [1, None, 3])
        doubled = column.map_values(lambda v: v * 2)
        assert doubled.values == [2, None, 6]

    def test_ref(self):
        table = Table("t", [Column("a", [1])])
        assert table.column("a").ref == ColumnRef("t", "a")

    def test_missing_count(self):
        assert Column("c", [None, "", 1]).missing_count() == 2


class TestTableConstruction:
    def test_from_mapping(self):
        table = Table("t", {"a": [1, 2], "b": ["x", "y"]})
        assert table.column_names == ["a", "b"]
        assert table.shape == (2, 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            Table("t", [Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", [Column("a", [1]), Column("a", [2])])

    def test_columns_know_their_table(self):
        table = Table("sales", {"amount": [1]})
        assert table.column("amount").table_name == "sales"

    def test_missing_column_lookup_raises(self):
        table = Table("t", {"a": [1]})
        with pytest.raises(KeyError, match="no column"):
            table.column("zzz")

    def test_contains(self):
        table = Table("t", {"a": [1]})
        assert "a" in table
        assert "b" not in table


class TestTableOperations:
    def test_rows_iteration(self, clients_table):
        rows = list(clients_table.rows())
        assert len(rows) == 6
        assert rows[0][0] == "J. Watts"

    def test_row_access_and_bounds(self, clients_table):
        assert clients_table.row(1)[0] == "B. Mei"
        with pytest.raises(IndexError):
            clients_table.row(100)

    def test_project_preserves_order(self, clients_table):
        projected = clients_table.project(["PO", "Client"])
        assert projected.column_names == ["PO", "Client"]
        assert projected.num_rows == clients_table.num_rows

    def test_drop_columns(self, clients_table):
        dropped = clients_table.drop_columns(["PO"])
        assert "PO" not in dropped.column_names
        assert dropped.num_columns == clients_table.num_columns - 1

    def test_select_rows(self, clients_table):
        subset = clients_table.select_rows([0, 2])
        assert subset.num_rows == 2
        assert subset.column("Client").values == ["J. Watts", "Q. Man"]

    def test_filter_rows(self, clients_table):
        usa = clients_table.filter_rows(lambda row: row["Country"] == "USA")
        assert usa.num_rows == 2

    def test_head_and_slice(self, clients_table):
        assert clients_table.head(2).num_rows == 2
        assert clients_table.slice_rows(1, 3).num_rows == 2
        assert clients_table.slice_rows(4, 100).num_rows == 2

    def test_union_requires_same_schema(self, clients_table):
        other = clients_table.project(["Client", "Street"])
        with pytest.raises(ValueError, match="union compatible"):
            clients_table.union(other)

    def test_union_concatenates_rows(self, clients_table):
        union = clients_table.union(clients_table)
        assert union.num_rows == clients_table.num_rows * 2

    def test_join_inner(self, clients_table, offices_table):
        joined = clients_table.join(offices_table, left_on="Country", right_on="Cntr")
        assert joined.num_rows == 6  # every client country exists in offices
        assert "Head" in joined.column_names

    def test_join_prefixes_clashing_columns(self):
        left = Table("l", {"k": [1, 2], "v": ["a", "b"]})
        right = Table("r", {"k": [1, 2], "v": ["c", "d"]})
        joined = left.join(right, left_on="k", right_on="k")
        assert "r_v" in joined.column_names

    def test_join_skips_missing_keys(self):
        left = Table("l", {"k": [1, None], "v": ["a", "b"]})
        right = Table("r", {"k": [1, None], "w": ["c", "d"]})
        joined = left.join(right, left_on="k", right_on="k")
        assert joined.num_rows == 1

    def test_rename_columns(self, clients_table):
        renamed = clients_table.rename_columns({"Client": "Customer"})
        assert "Customer" in renamed.column_names
        assert "Client" not in renamed.column_names
        assert renamed.column("Customer").values == clients_table.column("Client").values

    def test_sample_rows_deterministic(self, clients_table):
        rng = random.Random(1)
        sample_a = clients_table.sample_rows(3, rng)
        rng = random.Random(1)
        sample_b = clients_table.sample_rows(3, rng)
        assert sample_a.equals(sample_b)

    def test_with_column_adds_and_replaces(self, clients_table):
        new_col = Column("Flag", [True] * clients_table.num_rows)
        extended = clients_table.with_column(new_col)
        assert "Flag" in extended.column_names
        replaced = extended.with_column(Column("Flag", [False] * clients_table.num_rows))
        assert replaced.column("Flag").values == [False] * clients_table.num_rows

    def test_schema(self, clients_table):
        schema = clients_table.schema()
        assert schema["PO"] is DataType.INTEGER
        assert schema["Client"] is DataType.STRING

    def test_describe_mentions_every_column(self, clients_table):
        text = clients_table.describe()
        for name in clients_table.column_names:
            assert name in text

    def test_equals(self, clients_table):
        assert clients_table.equals(clients_table.project(clients_table.column_names))
        assert not clients_table.equals(clients_table.head(2))

    def test_to_dict_round_trip(self, clients_table):
        rebuilt = Table("copy", clients_table.to_dict())
        assert rebuilt.column_names == clients_table.column_names
        assert list(rebuilt.rows()) == list(clients_table.rows())
