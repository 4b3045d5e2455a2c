"""Tests for CSV serialisation of tables."""

from __future__ import annotations

import pytest

from repro.data.csv_io import read_csv, table_from_csv_text, table_to_csv_text, write_csv
from repro.data.fingerprint import table_content_hash
from repro.data.table import Table
from repro.data.types import DataType


class TestCsvText:
    def test_parse_simple_csv(self):
        table = table_from_csv_text("a,b\n1,x\n2,y\n", name="demo")
        assert table.name == "demo"
        assert table.shape == (2, 2)
        assert table.column("a").data_type is DataType.INTEGER

    def test_parse_without_type_inference(self):
        table = table_from_csv_text("a\n1\n2\n", infer_types=False)
        assert table.column("a").values == ["1", "2"]

    def test_empty_text_gives_empty_table(self):
        table = table_from_csv_text("")
        assert table.num_columns == 0

    def test_short_rows_padded_with_missing(self):
        table = table_from_csv_text("a,b\n1\n2,y\n")
        assert table.column("b").values[0] is None

    def test_serialise_round_trip(self, clients_table):
        text = table_to_csv_text(clients_table)
        parsed = table_from_csv_text(text, name=clients_table.name)
        assert parsed.column_names == clients_table.column_names
        assert parsed.num_rows == clients_table.num_rows
        assert parsed.column("PO").values == clients_table.column("PO").values

    def test_none_round_trips_as_missing(self):
        table = Table("t", {"a": [1, None], "b": ["x", "y"]})
        parsed = table_from_csv_text(table_to_csv_text(table))
        assert parsed.column("a").values[1] is None


class TestCsvFiles:
    def test_write_and_read(self, tmp_path, clients_table):
        path = write_csv(clients_table, tmp_path / "sub" / "clients.csv")
        assert path.exists()
        loaded = read_csv(path)
        assert loaded.name == "clients"
        assert loaded.column_names == clients_table.column_names
        assert loaded.num_rows == clients_table.num_rows

    def test_read_uses_custom_name(self, tmp_path, clients_table):
        path = write_csv(clients_table, tmp_path / "data.csv")
        loaded = read_csv(path, name="renamed")
        assert loaded.name == "renamed"

    def test_a_byte_order_mark_is_not_part_of_the_first_column_name(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfid,name\n1,a\n")
        table = read_csv(path)
        assert table.column_names == ["id", "name"]
        assert table.column("id").data_type is DataType.INTEGER

    def test_a_file_without_a_byte_order_mark_hashes_as_before(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"id,name,score\n1,a,2.5\n2,b,\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        # The digest the reader gave this file before byte-order marks were dropped.
        assert table_content_hash(read_csv(plain)) == "ad7659587e59e7137cf182be09032dd5"
        assert table_content_hash(read_csv(marked)) == table_content_hash(read_csv(plain))

    def test_written_files_carry_no_byte_order_mark(self, tmp_path):
        path = write_csv(Table("t", {"id": [1, 2]}), tmp_path / "t.csv")
        assert path.read_bytes().startswith(b"id\n")
