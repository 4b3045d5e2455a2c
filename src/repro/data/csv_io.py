"""CSV persistence for :class:`~repro.data.table.Table` objects.

Valentine stores fabricated dataset pairs on disk as CSV files; this module
provides the read/write round trip used by the fabricator, the example
scripts and the experiment runner.
"""

from __future__ import annotations

import csv
import io
from itertools import islice, zip_longest
from pathlib import Path
from typing import Optional, Union

from repro.data.table import Column, Table
from repro.data.types import type_column

__all__ = ["UNREADABLE_CSV", "read_csv", "write_csv", "table_from_csv_text", "table_to_csv_text"]

PathLike = Union[str, Path]

#: What :func:`read_csv` raises for a missing, undecodable or malformed file —
#: the set callers catch to skip (or report) one bad CSV instead of crashing.
UNREADABLE_CSV = (OSError, ValueError, csv.Error)


def table_from_csv_text(text: str, name: str = "table", infer_types: bool = True) -> Table:
    """Parse CSV *text* (with a header row) into a :class:`Table`.

    Parameters
    ----------
    text:
        CSV content; the first row is the header.
    name:
        Name given to the resulting table.
    infer_types:
        When True (default) cell values are coerced to the inferred column
        type; otherwise all cells stay strings.

    Each column is typed and coerced by :func:`~repro.data.types.type_column`;
    a short row leaves ``None`` in the columns it lacks, and cells past the
    header's width are dropped.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        return Table(name, [])
    columns: list[Column] = []
    # One column per header cell: a short row pads it with None, and an
    # over-long row's extra cells fall past the header's width.
    for header_cell, *cells in islice(zip_longest(*rows), len(rows[0])):
        if infer_types:
            data_type, values = type_column(cells)
            columns.append(Column(header_cell.strip(), values, data_type))
        else:
            columns.append(Column(header_cell.strip(), cells))
    return Table(name, columns)


def table_to_csv_text(table: Table) -> str:
    """Serialise *table* to CSV text (header + rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.rows():
        writer.writerow(["" if value is None else value for value in row])
    return buffer.getvalue()


def read_csv(path: PathLike, name: Optional[str] = None, infer_types: bool = True) -> Table:
    """Read a CSV file into a :class:`Table`.

    The table name defaults to the file stem.  A leading UTF-8 byte-order
    mark (as spreadsheet exports write) is dropped, not read into the first
    column's name.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    return table_from_csv_text(text, name=name or path.stem, infer_types=infer_types)


def write_csv(table: Table, path: PathLike) -> Path:
    """Write *table* to *path* as CSV and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(table_to_csv_text(table))
    return path
