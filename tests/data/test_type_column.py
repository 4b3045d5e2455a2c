"""The whole-column typing kernel behind the CSV reader.

``table_from_csv_text`` types and coerces each column with
:func:`repro.data.types.type_column` instead of one ``infer_value_type`` and
one ``coerce_value`` per cell.  Every table it builds must be the one the
cell-by-cell reader built: the same names, types, and ``(type(v), v)`` for
every cell.  The cell-by-cell reader is kept below as the reference; it
calls the live ``coerce_value``, so both sides share that function's rules.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import types
from repro.data.csv_io import table_from_csv_text
from repro.data.table import Column, Table
from repro.data.types import DataType, coerce_value, infer_column_type, type_column


def reference_coerced(column: Column) -> Column:
    """``Column.coerced()`` as it was before the kernel replaced it."""
    coerced_values = [coerce_value(v, column.data_type) for v in column.values]
    return Column(column.name, coerced_values, column.data_type, column.table_name)


def reference_table_from_csv_text(text: str, name: str = "table", infer_types: bool = True) -> Table:
    """``table_from_csv_text`` as it was before the kernel: cell by cell."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        return Table(name, [])
    header = [h.strip() for h in rows[0]]
    data_rows = rows[1:]
    columns: list[Column] = []
    for i, col_name in enumerate(header):
        values: list[object] = [row[i] if i < len(row) else None for row in data_rows]
        column = Column(col_name, values)
        if infer_types and column.data_type is not DataType.STRING:
            column = reference_coerced(column)
        columns.append(column)
    return Table(name, columns)


def _cell(value: object) -> tuple[type, str]:
    # ``repr`` is stricter than ``==`` (it tells -0.0 from 0.0) and, unlike
    # ``==``, equates a NaN with itself.
    return type(value), repr(value)


def snapshot(table: Table) -> list:
    return [
        (column.name, column.data_type, [_cell(v) for v in column.values])
        for column in table.columns
    ]


def assert_reads_like_the_reference(text: str, infer_types: bool = True) -> Table:
    try:
        expected = reference_table_from_csv_text(text, infer_types=infer_types)
    except ValueError as exc:  # duplicate column names
        with pytest.raises(ValueError, match=str(exc).split(":")[0]):
            table_from_csv_text(text, infer_types=infer_types)
        return Table("table", [])
    table = table_from_csv_text(text, infer_types=infer_types)
    assert snapshot(table) == snapshot(expected)
    return table


def csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


#: Cells of every kind, including the spellings where the whole-column
#: patterns and the per-cell rules could part ways.
_CELLS = [
    "0", "1", "12", "-7", "+4", "007", "1.5", "-0.0", ".5", "5.", "1e3", "2.5E-2", "1e400",
    "yes", "no", "T", "f", "TRUE",
    "2020-01-31", "2020-01-31 12:30", "3/4/21", "1-Jan-2020",
    "text", "12 apples", "2020-13", "1_000", "inf", "-Infinity", "+nan", "0x10",
    "", "  ", "NA", "n/a", "null", "none", "-", "?", "nan",
    " 7 ", "\t3.5 ", " 12 ", "\x1c12", "12\x1f",
    "١٢", "３", "٣.٥",
    "1\n2", "7\n", "a,b", 'say "hi"',
]

cells = st.one_of(st.sampled_from(_CELLS), st.text(alphabet="0123456789.-+eE aT/\n", max_size=6))


@st.composite
def csv_documents(draw) -> str:
    width = draw(st.integers(min_value=1, max_value=4))
    header = [f"c{i}" for i in range(width)]
    # A column drawn from one small pool makes numeric / date / boolean
    # columns (and their near misses) common, not just STRING ones.
    pools = [draw(st.lists(cells, min_size=1, max_size=4)) for _ in range(width)]
    num_rows = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(num_rows):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        if draw(st.integers(min_value=0, max_value=9)) == 0:  # a ragged row
            row = row[: draw(st.integers(min_value=1, max_value=width))] + draw(
                st.lists(cells, max_size=2)
            )
        rows.append(row)
    return csv_text([header, *rows])


class TestReadsLikeTheCellByCellReader:
    @settings(max_examples=400, deadline=None)
    @given(csv_documents())
    def test_generated_csv(self, text):
        assert_reads_like_the_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='01.e-, \n"aT/', max_size=60))
    def test_raw_text(self, text):
        assert_reads_like_the_reference("h1,h2\n" + text)

    @settings(max_examples=100, deadline=None)
    @given(csv_documents())
    def test_without_type_inference(self, text):
        table = assert_reads_like_the_reference(text, infer_types=False)
        for column in table.columns:
            assert all(v is None or type(v) is str for v in column.values)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('a,b\n"1\n2",x\n3,y\n', id="quoted-newline-in-a-numeric-column"),
            pytest.param('a,b\n"7\n",x\n3,y\n', id="quoted-trailing-newline"),
            pytest.param('a,b\n"2020-01-01\n",x\n"1-Jan-20",y\n', id="quoted-newline-in-a-date-column"),
            pytest.param('d\n"2020-01-01\n2020-01-02"\n2020-01-03\n', id="two-dates-in-one-cell"),
            pytest.param("a,b,c\n1,2\n3\n4,5,6\n", id="short-rows"),
            pytest.param("a,b\n1,2,3\n4,5,6,7\n", id="over-long-rows"),
            pytest.param("a,b\n1,2,3\n4\n", id="long-and-short-rows"),
            pytest.param("a\n 1 \n\t2\r\n3  \n", id="surrounding-whitespace"),
            pytest.param("a,b\n 12 , 1.5\n　3,\u00852\n", id="unicode-whitespace"),
            pytest.param("a,b\n\x1c12,12\x1f\n3,4\n", id="information-separators"),
            pytest.param("a,b\n١٢,٣.٥\n３,7\n", id="unicode-digits"),
            pytest.param("a\n1_000\n2\n", id="digit-grouping-underscore"),
            pytest.param("a,b,c\nnan,inf,1.5\n2,-inf,Infinity\n", id="nan-and-inf"),
            pytest.param("a,b\n1,2.5\nNA,\n,n/a\n3,?\n", id="na-tokens-in-numeric-columns"),
            pytest.param("a\n0\n1\nyes\nno\n", id="zero-one-mixed-with-yes-no"),
            pytest.param("a,b\n0\n1\n", id="zero-one-and-a-short-row"),
            pytest.param("a,b\nyes,2020-01-01\nNo,3/4/21\n, 1-Jan-2020 \n", id="boolean-and-date"),
            pytest.param("a,b\nNA,\n,-\n", id="all-missing"),
            pytest.param("a,b\n", id="header-only"),
            pytest.param("", id="empty"),
            pytest.param(" a , b \n1,2\n", id="header-whitespace"),
            pytest.param("a,a\n1,2\n", id="duplicate-header"),
            pytest.param("a,b\r\n1,x\r\n\r\n2,y\r\n", id="crlf-and-blank-line"),
        ],
    )
    def test_edge_case(self, text):
        assert_reads_like_the_reference(text)
        assert_reads_like_the_reference(text, infer_types=False)

    @pytest.mark.parametrize("late", ["12.5", "12.0", "1e3", "abc", "NA", "2020-01-01"])
    def test_a_late_cell_past_the_sample(self, late):
        """1,001 rows: the 1,001st cell is outside the 1,000-cell sample."""
        table = assert_reads_like_the_reference("n\n" + "1\n" * 1000 + late + "\n")
        assert table["n"].data_type is DataType.INTEGER

    def test_a_5000_digit_integer(self):
        """Past ``int``'s 4,300-digit limit: the column pattern matches, ``int`` refuses."""
        huge = "1" * 5000
        table = assert_reads_like_the_reference(f"n,m\n{huge},{huge}.5\n2,3\n")
        assert table["n"].data_type is DataType.INTEGER
        assert table["n"].values == [huge, 2]


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), cells), max_size=12),
        st.integers(min_value=-1, max_value=13),
    )
    def test_matches_infer_then_coerce(self, column, sample_limit):
        """Short ``sample_limit``s drive the longer-than-the-sample path too."""
        data_type = infer_column_type(column, sample_limit)
        expected = (
            column if data_type is DataType.STRING else [coerce_value(v, data_type) for v in column]
        )
        got_type, got = type_column(column, sample_limit)
        assert got_type is data_type
        assert [_cell(v) for v in got] == [_cell(v) for v in expected]


class TestCensus:
    """How many cells get typed one at a time."""

    @pytest.fixture
    def typed(self, monkeypatch):
        calls: list[object] = []
        original = types.infer_value_type
        monkeypatch.setattr(
            types, "infer_value_type", lambda value: calls.append(value) or original(value)
        )
        return calls

    def test_an_all_numeric_csv_types_no_cell(self, typed):
        rows = [["id", "price", "qty"]] + [[str(i), f"{i}.25", str(-i)] for i in range(100)]
        text = csv_text(rows)
        table = table_from_csv_text(text)
        assert [c.data_type for c in table.columns] == [
            DataType.INTEGER,
            DataType.FLOAT,
            DataType.INTEGER,
        ]
        assert typed == []
        reference_table_from_csv_text(text)
        assert len(typed) == 100 * 3

    def test_a_date_column_types_no_cell(self, typed):
        text = "d\n" + "".join(f"2020-01-{day:02d}\n" for day in range(1, 29))
        assert table_from_csv_text(text)["d"].data_type is DataType.DATE
        assert typed == []

    def test_a_text_column_types_its_first_cell(self, typed):
        text = "name\n" + "".join(f"name {i}\n" for i in range(100))
        assert table_from_csv_text(text)["name"].data_type is DataType.STRING
        assert typed == ["name 0"]
