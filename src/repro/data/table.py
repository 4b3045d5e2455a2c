"""In-memory tabular data model.

This is the relational substrate used throughout the suite: every matcher,
fabricator and dataset generator produces or consumes :class:`Table` and
:class:`Column` objects.  The model is deliberately small — column-ordered,
row-addressable, type-annotated tables — because schema matching only needs
schema metadata (names, types) and column value sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.data.types import (
    DataType,
    infer_column_type,
    is_missing,
    parse_numeric_values,
)
from repro.sketches.minhash import hash_values

__all__ = ["Column", "ColumnScan", "Table", "ColumnRef", "TableHeader"]


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A fully qualified reference to a column of a table.

    Match results refer to columns through ``ColumnRef`` so that matches stay
    meaningful independently of any in-memory :class:`Table` object.
    """

    table: str
    column: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class TableHeader:
    """A table's schema without its cells: name, typed columns, row count.

    What a matcher reads of a table it only holds prepared — a stored
    candidate carries its header, not its cells.
    """

    name: str
    column_names: tuple[str, ...]
    column_types: tuple[DataType, ...]
    num_rows: int

    @classmethod
    def of(cls, table: "Table") -> "TableHeader":
        columns = table.columns
        return cls(
            table.name,
            tuple(column.name for column in columns),
            tuple(column.data_type for column in columns),
            table.num_rows,
        )

    @property
    def num_columns(self) -> int:
        return len(self.column_names)


class ColumnScan(NamedTuple):
    """A column's cells counted once (:meth:`Column.scan`).

    Per distinct non-missing value (``set`` semantics: equal cells count
    under the first one seen): *counts*, its number of cells, and *slots*,
    the index of its normalised string's hash in *hashes* (as returned by
    :func:`~repro.sketches.minhash.hash_values`).  *size* counts the
    non-missing cells and *rendered_length* sums their ``len(str(cell))``.
    *uniform*: every cell renders as the value it counts under, so *hashes*
    are every cell's; ``1``, ``1.0`` and ``True``, or ``0.0`` and ``-0.0``,
    do not.
    """

    counts: np.ndarray
    slots: np.ndarray
    hashes: np.ndarray
    size: int
    rendered_length: int
    uniform: bool


class Column:
    """A named, typed column with its cell values.

    Parameters
    ----------
    name:
        Attribute name of the column.
    values:
        Cell values; missing cells may be ``None`` or conventional NA tokens.
    data_type:
        Optional explicit data type; inferred from values when omitted.
    table_name:
        Name of the owning table (set by :class:`Table`).
    """

    __slots__ = ("name", "values", "data_type", "table_name", "_unique_cache", "_scan_cache")

    def __init__(
        self,
        name: str,
        values: Sequence[object],
        data_type: Optional[DataType] = None,
        table_name: str = "",
    ) -> None:
        self.name = str(name)
        self.values = list(values)
        self.data_type = data_type or infer_column_type(self.values)
        self.table_name = table_name
        self._unique_cache: Optional[set] = None
        self._scan_cache: Optional[ColumnScan] = None

    def __reduce__(self):
        # The caches are rebuilt on demand: a pickle carries none of them.
        return Column, (self.name, self.values, self.data_type, self.table_name)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[object]:
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, type={self.data_type.value}, n={len(self)})"

    def non_missing(self) -> list[object]:
        """Return the list of non-missing cell values."""
        return [v for v in self.values if not is_missing(v)]

    def unique_values(self) -> set:
        """Return the set of distinct non-missing values (cached)."""
        if self._unique_cache is None:
            self._unique_cache = set(self.non_missing())
        return self._unique_cache

    def scan(self) -> ColumnScan:
        """The column's :class:`ColumnScan` (cached): one count of the
        cells, one ``str`` per cell, one digest per distinct value."""
        if self._scan_cache is None:
            counts = Counter(self.values)
            distinct = [value for value in counts if not is_missing(value)]
            cells = list(map(counts.__getitem__, distinct))
            size = sum(cells)
            non_missing = self.values if size == len(self.values) else self.non_missing()
            texts = list(map(str, non_missing))
            slots, hashes = hash_values(distinct)
            self._scan_cache = ColumnScan(
                np.array(cells, np.int64), slots, hashes, size, sum(map(len, texts)),
                len(set(zip(non_missing, texts))) == len(distinct),
            )  # fmt: skip
        return self._scan_cache

    def as_strings(self) -> list[str]:
        """Return non-missing values rendered as stripped strings."""
        return [str(v).strip() for v in self.non_missing()]

    def numeric_values(self) -> list[float]:
        """Return the values of a numeric column as floats.

        Non-convertible cells are skipped, which makes the method safe on
        noisy fabricated data.
        """
        return parse_numeric_values(self.non_missing())

    def missing_count(self) -> int:
        """Number of missing cells."""
        return sum(1 for v in self.values if is_missing(v))

    def rename(self, new_name: str) -> "Column":
        """Return a copy of the column under a new attribute name."""
        return Column(new_name, list(self.values), self.data_type, self.table_name)


class Table:
    """A named relational table: an ordered collection of equally long columns.

    The class offers the relational operations the fabricator and the
    matchers need: projection, row selection, horizontal/vertical slicing,
    union, join and simple statistics.  Tables are immutable by convention —
    operations return new tables.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column] | Mapping[str, Sequence[object]],
    ) -> None:
        self.name = str(name)
        if isinstance(columns, Mapping):
            prepared = [Column(col_name, values) for col_name, values in columns.items()]
        else:
            prepared = [
                Column(col.name, list(col.values), col.data_type) for col in columns
            ]
        lengths = {len(col) for col in prepared}
        if len(lengths) > 1:
            raise ValueError(
                f"all columns of table {name!r} must have the same length, got {sorted(lengths)}"
            )
        names = [col.name for col in prepared]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {name!r}: {names}")
        for col in prepared:
            col.table_name = self.name
        self._columns: list[Column] = prepared
        self._index: dict[str, int] = {col.name: i for i, col in enumerate(prepared)}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> list[Column]:
        """The ordered list of columns."""
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        """The ordered list of column names."""
        return [col.name for col in self._columns]

    @property
    def num_rows(self) -> int:
        """Number of rows (0 for a table without columns)."""
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_rows, num_columns)``."""
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def __getitem__(self, column_name: str) -> Column:
        return self.column(column_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, shape={self.shape})"

    def column(self, name: str) -> Column:
        """Return the column called *name*.

        Raises
        ------
        KeyError
            If no column with that name exists.
        """
        try:
            return self._columns[self._index[name]]
        except KeyError as exc:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from exc

    def rows(self) -> Iterator[tuple]:
        """Iterate over rows as tuples, in column order."""
        for i in range(self.num_rows):
            yield tuple(col.values[i] for col in self._columns)

    def row(self, index: int) -> tuple:
        """Return row *index* as a tuple."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row index {index} out of range for table {self.name!r}")
        return tuple(col.values[index] for col in self._columns)

    def to_dict(self) -> dict[str, list[object]]:
        """Return a ``{column name: values}`` dictionary copy of the table."""
        return {col.name: list(col.values) for col in self._columns}

    # ------------------------------------------------------------------ #
    # relational operations
    # ------------------------------------------------------------------ #
    def rename(self, new_name: str) -> "Table":
        """Return a copy of the table under a new table name."""
        return Table(new_name, self._columns)

    def rename_columns(self, mapping: Mapping[str, str]) -> "Table":
        """Return a copy with columns renamed according to *mapping*.

        Column names absent from *mapping* are kept unchanged.
        """
        renamed = [
            Column(mapping.get(col.name, col.name), list(col.values), col.data_type)
            for col in self._columns
        ]
        return Table(self.name, renamed)

    def project(self, column_names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Relational projection: keep only *column_names*, in the given order."""
        selected = [self.column(col_name) for col_name in column_names]
        return Table(name or self.name, selected)

    def select_rows(self, indices: Sequence[int], name: Optional[str] = None) -> "Table":
        """Return a copy containing only the rows at *indices* (in order)."""
        new_columns = [
            Column(col.name, [col.values[i] for i in indices], col.data_type)
            for col in self._columns
        ]
        return Table(name or self.name, new_columns)

    def slice_rows(self, start: int, stop: int, name: Optional[str] = None) -> "Table":
        """Return rows in ``[start, stop)``."""
        stop = min(stop, self.num_rows)
        start = max(start, 0)
        return self.select_rows(range(start, stop), name=name)

    def union(self, other: "Table", name: Optional[str] = None) -> "Table":
        """Union-compatible concatenation of rows (bag semantics).

        Raises
        ------
        ValueError
            If the two tables do not have identical column name lists.
        """
        if self.column_names != other.column_names:
            raise ValueError(
                "tables are not union compatible: "
                f"{self.column_names} vs {other.column_names}"
            )
        merged = [
            Column(col.name, list(col.values) + list(other.column(col.name).values))
            for col in self._columns
        ]
        return Table(name or self.name, merged)

    def join(
        self,
        other: "Table",
        left_on: str,
        right_on: str,
        name: Optional[str] = None,
    ) -> "Table":
        """Equi-join on ``self.left_on == other.right_on`` (inner join).

        Columns of *other* that clash with columns of *self* are prefixed with
        the other table's name.
        """
        right_index: dict[object, list[int]] = {}
        right_key = other.column(right_on)
        for i, value in enumerate(right_key.values):
            if is_missing(value):
                continue
            right_index.setdefault(value, []).append(i)

        left_rows: list[int] = []
        right_rows: list[int] = []
        left_key = self.column(left_on)
        for i, value in enumerate(left_key.values):
            if is_missing(value):
                continue
            for j in right_index.get(value, ()):
                left_rows.append(i)
                right_rows.append(j)

        new_columns: list[Column] = [
            Column(col.name, [col.values[i] for i in left_rows], col.data_type)
            for col in self._columns
        ]
        existing = set(self.column_names)
        for col in other.columns:
            out_name = col.name if col.name not in existing else f"{other.name}_{col.name}"
            new_columns.append(
                Column(out_name, [col.values[j] for j in right_rows], col.data_type)
            )
        return Table(name or f"{self.name}_join_{other.name}", new_columns)

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def schema(self) -> dict[str, DataType]:
        """Return ``{column name: data type}``."""
        return {col.name: col.data_type for col in self._columns}

    def describe(self) -> str:
        """Return a short human-readable summary of the table."""
        lines = [f"Table {self.name!r}: {self.num_rows} rows x {self.num_columns} columns"]
        for col in self._columns:
            distinct = len(col.unique_values())
            lines.append(
                f"  - {col.name} ({col.data_type.value}): {distinct} distinct, "
                f"{col.missing_count()} missing"
            )
        return "\n".join(lines)
