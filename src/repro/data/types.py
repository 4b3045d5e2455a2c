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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

__all__ = [
    "DataType",
    "TYPE_COMPATIBILITY",
    "infer_value_type",
    "infer_column_type",
    "coerce_value",
    "is_missing",
    "parse_numeric_values",
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


_MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "-", "?"})

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_BOOL_TOKENS = frozenset({"true", "false", "yes", "no", "t", "f", "y", "n"})
_DATE_RES = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}([ T]\d{1,2}:\d{2}(:\d{2})?)?$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$"),
    re.compile(r"^\d{1,2}-[A-Za-z]{3}-\d{2,4}$"),
)


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
            # The ``12.0`` / ``1e3`` cells an INTEGER column can still hold
            # past ``sample_limit``.
            return int(float(text))
        except (ValueError, OverflowError):
            return value
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


@dataclass(frozen=True)
class TypeProfile:
    """Summary of the type composition of a column.

    Attributes
    ----------
    dominant:
        The inferred dominant data type.
    counts:
        Number of non-missing values observed per type.
    missing:
        Number of missing cells.
    total:
        Total number of cells examined.
    """

    dominant: DataType
    counts: dict[str, int]
    missing: int
    total: int

    @property
    def missing_ratio(self) -> float:
        """Fraction of cells that are missing."""
        return self.missing / self.total if self.total else 0.0


def profile_types(values: Sequence[object], sample_limit: Optional[int] = None) -> TypeProfile:
    """Build a :class:`TypeProfile` for a sequence of cell values."""
    limit = len(values) if sample_limit is None else min(sample_limit, len(values))
    counts: dict[str, int] = {}
    missing = 0
    for value in values[:limit]:
        if is_missing(value):
            missing += 1
            continue
        kind = infer_value_type(value).value
        counts[kind] = counts.get(kind, 0) + 1
    dominant = infer_column_type(values[:limit])
    return TypeProfile(dominant=dominant, counts=counts, missing=missing, total=limit)
