"""Data type model and type inference for tabular columns.

The Valentine experiment suite operates on denormalised tabular datasets
(CSV files, spreadsheets, database relations).  Matching methods such as
COMA's data-type matcher or Cupid's data-type compatibility component need a
small but well-defined type system together with a way to infer a column's
type from its observed values.  This module provides both.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "DataType",
    "TYPE_COMPATIBILITY",
    "TYPE_COMPATIBILITY_MATRIX",
    "TYPE_INDEX",
    "infer_value_type",
    "infer_column_type",
    "coerce_value",
    "is_missing",
    "parse_numeric_values",
    "type_column",
    "type_compatibility",
]


def parse_numeric_values(values: Iterable[object]) -> list[float]:
    """Float-convertible values of a collection; non-convertible are skipped.

    The single implementation behind ``Column.numeric_values`` and the
    profiler's precomputed-scan path, so their skipping rules can never
    drift apart.
    """
    result: list[float] = []
    for value in values:
        try:
            result.append(float(str(value)))
        except (TypeError, ValueError):
            continue
    return result


class DataType(str, Enum):
    """Logical data types recognised by the suite.

    The set mirrors what the matchers in the paper care about: numeric
    columns (integer / float), free text, dates, booleans and an ``UNKNOWN``
    catch-all for empty columns.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOLEAN = "boolean"
    UNKNOWN = "unknown"

    @property
    def is_numeric(self) -> bool:
        """Return True for integer and float columns."""
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_textual(self) -> bool:
        """Return True for string-like columns."""
        return self is DataType.STRING


#: Pairwise compatibility scores between data types, used by schema-based
#: matchers (Cupid's data-type compatibility factor and COMA's type matcher).
#: The table is symmetric; values are in [0, 1].
TYPE_COMPATIBILITY: dict[tuple[DataType, DataType], float] = {}


def _register_compatibility(a: DataType, b: DataType, score: float) -> None:
    TYPE_COMPATIBILITY[(a, b)] = score
    TYPE_COMPATIBILITY[(b, a)] = score


for _t in DataType:
    _register_compatibility(_t, _t, 1.0)

_register_compatibility(DataType.INTEGER, DataType.FLOAT, 0.9)
_register_compatibility(DataType.INTEGER, DataType.STRING, 0.3)
_register_compatibility(DataType.FLOAT, DataType.STRING, 0.3)
_register_compatibility(DataType.INTEGER, DataType.BOOLEAN, 0.4)
_register_compatibility(DataType.FLOAT, DataType.BOOLEAN, 0.2)
_register_compatibility(DataType.STRING, DataType.BOOLEAN, 0.3)
_register_compatibility(DataType.STRING, DataType.DATE, 0.4)
_register_compatibility(DataType.INTEGER, DataType.DATE, 0.2)
_register_compatibility(DataType.FLOAT, DataType.DATE, 0.1)
_register_compatibility(DataType.BOOLEAN, DataType.DATE, 0.05)

for _t in DataType:
    if _t is not DataType.UNKNOWN:
        _register_compatibility(DataType.UNKNOWN, _t, 0.5)


def type_compatibility(a: DataType, b: DataType) -> float:
    """Return the compatibility score of two data types in ``[0, 1]``."""
    return TYPE_COMPATIBILITY.get((a, b), 0.0)


#: :func:`type_compatibility` as a matrix for array code: the score of
#: ``(a, b)`` is ``TYPE_COMPATIBILITY_MATRIX[TYPE_INDEX[a], TYPE_INDEX[b]]``.
TYPE_INDEX = {data_type: i for i, data_type in enumerate(DataType)}
TYPE_COMPATIBILITY_MATRIX = np.array(
    [[type_compatibility(a, b) for b in DataType] for a in DataType]
)


_MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "-", "?"})

#: One integer / float / date cell, shared by the per-cell patterns and the
#: whole-column ones :func:`type_column` matches.
_INT_BODY = r"[+-]?\d+"
_FLOAT_BODY = r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_INT_RE = re.compile(rf"^{_INT_BODY}$")
_FLOAT_RE = re.compile(rf"^{_FLOAT_BODY}$")
_BOOL_TOKENS = frozenset({"true", "false", "yes", "no", "t", "f", "y", "n"})
_DATE_BODIES = (
    r"\d{4}-\d{1,2}-\d{1,2}(?:[ T]\d{1,2}:\d{2}(?::\d{2})?)?",
    r"\d{1,2}/\d{1,2}/\d{2,4}",
    r"\d{1,2}-[A-Za-z]{3}-\d{2,4}",
)
_DATE_RES = tuple(re.compile(rf"^{body}$") for body in _DATE_BODIES)


def is_missing(value: object) -> bool:
    """Return True when *value* denotes a missing cell.

    Missing cells are ``None``, floating point NaN and a small set of
    conventional placeholder strings (empty string, ``NA``, ``NULL``, ...).
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str):
        return value.strip().lower() in _MISSING_TOKENS
    return False


def infer_value_type(value: object) -> DataType:
    """Infer the :class:`DataType` of a single cell value.

    Missing cells map to :attr:`DataType.UNKNOWN`.
    """
    if is_missing(value):
        return DataType.UNKNOWN
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        # Integral floats (``3.0``) stay FLOAT: the cell was written as one.
        return DataType.FLOAT
    text = str(value).strip()
    lowered = text.lower()
    if lowered in _BOOL_TOKENS:
        return DataType.BOOLEAN
    if _INT_RE.match(text):
        return DataType.INTEGER
    if _FLOAT_RE.match(text):
        return DataType.FLOAT
    for pattern in _DATE_RES:
        if pattern.match(text):
            return DataType.DATE
    return DataType.STRING


#: Kinds that can still share a column without it falling back to STRING.
_NUMERIC_KINDS = frozenset({DataType.INTEGER, DataType.FLOAT})


def infer_column_type(values: Iterable[object], sample_limit: int = 1000) -> DataType:
    """Infer the dominant :class:`DataType` of a column.

    The inference looks at up to *sample_limit* non-missing values and applies
    a simple promotion lattice: a column with both integers and floats is a
    float column, a column mixing numerics and text is a string column.

    The scan stops at the first cell that decides the lattice: a STRING
    cell, or a BOOLEAN or DATE cell mixed with any other kind, can only end
    in STRING whatever follows, so a text column costs one typed cell, not
    one per row.  Each cell is typed (and checked for missingness) once.

    Parameters
    ----------
    values:
        The cell values of the column.
    sample_limit:
        Maximum number of non-missing cells examined.
    """
    seen: set[DataType] = set()
    examined = 0
    for value in values:
        kind = infer_value_type(value)
        if kind is DataType.UNKNOWN:  # a missing cell
            continue
        if kind not in seen:
            seen.add(kind)
            if kind is DataType.STRING or (len(seen) > 1 and not seen <= _NUMERIC_KINDS):
                return DataType.STRING
        examined += 1
        if examined >= sample_limit:
            break

    if not seen:
        return DataType.UNKNOWN
    if len(seen) == 1:
        return next(iter(seen))
    return DataType.FLOAT  # only INTEGER mixed with FLOAT gets this far


#: Whitespace around a cell of a whole-column pattern: what ``str.strip``
#: removes, except the line break that joins the cells.  (``int`` and
#: ``float`` reject the separators ``\x1c``-``\x1f``; their ``ValueError``
#: sends such a column down the cell-by-cell path.)
_PAD = r"[^\S\n]*"


def _column_pattern(body: str) -> "re.Pattern[str]":
    cell = rf"{_PAD}(?:{body}){_PAD}"
    return re.compile(rf"{cell}(?:\n{cell})*")


#: ``(pattern, type, converter)``: a column whose newline-joined cells
#: fullmatch *pattern* has type *type*, and ``converter`` coerces each cell
#: exactly as :func:`coerce_value` would, or raises ``ValueError``.  INTEGER
#: is tried before FLOAT, which an all-integer column also matches.  A date
#: cell always holds a ``-`` or ``/``, so it is never a number, a boolean
#: or a missing token.
_PATTERN_COLUMNS = (
    (_column_pattern(_INT_BODY), DataType.INTEGER, int),
    (_column_pattern(_FLOAT_BODY), DataType.FLOAT, float),
    (_column_pattern("|".join(_DATE_BODIES)), DataType.DATE, str.strip),
)


def _pattern_column(cells: Sequence[Optional[str]]) -> Optional[tuple[DataType, list[object]]]:
    """``(type, values)`` of an all-integer, all-float or all-date column, else None.

    Only for cells that are all strings without a line break, so that the
    newline-joined column holds exactly ``len(cells) - 1`` of them.
    """
    try:
        blob = "\n".join(cells)
    except TypeError:  # a short row's None
        return None
    for pattern, data_type, convert in _PATTERN_COLUMNS:
        if pattern.fullmatch(blob):
            if blob.count("\n") != len(cells) - 1:  # a cell holds a line break
                return None
            try:
                return data_type, list(map(convert, cells))
            except ValueError:  # past int's digit limit, or a \x1c pad
                return None
    return None


def type_column(
    cells: Sequence[Optional[str]], sample_limit: int = 1000
) -> tuple[DataType, list[object]]:
    """Type a column of raw CSV cells and coerce them: ``(data_type, values)``.

    The result is exactly ``infer_column_type(cells, sample_limit)`` and,
    unless that is STRING (cells kept as read), ``coerce_value`` applied to
    every cell; *cells* are strings, with ``None`` for a short row's gap.
    A column of at most *sample_limit* cells whose newline-joined text
    fullmatches an integer, float or date column pattern gets there in one
    pass: every cell is in the sample and has the pattern's kind, so the
    column is converted with one ``map(int | float | str.strip, ...)`` and
    no cell is typed.  Any other column is typed and coerced cell by cell.
    """
    if len(cells) <= sample_limit:
        patterned = _pattern_column(cells)
        if patterned is not None:
            return patterned
    data_type = infer_column_type(cells, sample_limit)
    if data_type is DataType.STRING:
        return data_type, list(cells)
    return data_type, [coerce_value(cell, data_type) for cell in cells]


def coerce_value(value: object, data_type: DataType) -> object:
    """Coerce *value* into the Python representation of *data_type*.

    Values that cannot be coerced are returned unchanged; missing cells are
    returned as ``None``.  The function never raises for malformed input,
    which keeps ingestion of noisy fabricated datasets simple.
    """
    if is_missing(value):
        return None
    text = str(value).strip()
    if data_type is DataType.INTEGER:
        try:
            # Exact at any magnitude; ``float`` would round beyond 2**53.
            return int(text)
        except ValueError:
            pass
        try:
            number = float(text)
        except ValueError:
            return value
        # The ``12.0`` / ``1e3`` cells an INTEGER column can still hold past
        # ``sample_limit``; a fractional or infinite one is not an integer.
        return int(number) if number.is_integer() else value
    if data_type is DataType.FLOAT:
        try:
            return float(text)
        except ValueError:
            return value
    if data_type is DataType.BOOLEAN:
        lowered = text.lower()
        if lowered in ("true", "t", "yes", "y", "1"):
            return True
        if lowered in ("false", "f", "no", "n", "0"):
            return False
        return value
    if data_type in (DataType.STRING, DataType.DATE):
        return text
    return value
