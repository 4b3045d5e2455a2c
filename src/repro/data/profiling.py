"""Column profiling utilities.

Several matchers need lightweight statistics about columns — distinctness,
value-length statistics, numeric summaries — and the experiment reports print
dataset profiles.  This module centralises those computations so matchers do
not each re-derive them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.data.table import Column
from repro.data.types import DataType, parse_numeric_values

__all__ = ["ColumnProfile", "profile_column"]


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics of a single column.

    Attributes
    ----------
    name:
        Column name.
    data_type:
        Inferred data type.
    row_count:
        Total number of cells.
    distinct_count:
        Number of distinct non-missing values.
    missing_count:
        Number of missing cells.
    mean / std / minimum / maximum:
        Numeric summaries (``None`` for non-numeric columns).
    avg_length:
        Average rendered string length of non-missing values.
    """

    name: str
    data_type: DataType
    row_count: int
    distinct_count: int
    missing_count: int
    mean: Optional[float]
    std: Optional[float]
    minimum: Optional[float]
    maximum: Optional[float]
    avg_length: float


def profile_column(
    column: Column,
    *,
    non_missing: Optional[list] = None,
    distinct_count: Optional[int] = None,
) -> ColumnProfile:
    """Compute a :class:`ColumnProfile` for *column*.

    Parameters
    ----------
    column:
        The column to profile.
    non_missing / distinct_count:
        Optionally pass the precomputed non-missing values and distinct
        count so callers that already scanned the column (e.g.
        :func:`repro.lake.profiles.sketch_table`, which also feeds the same
        scan to the MinHash and histogram passes) don't trigger another
        traversal.  Results are identical either way.
    """
    if non_missing is None:
        non_missing = column.non_missing()
    distinct = len(column.unique_values()) if distinct_count is None else distinct_count
    missing = len(column) - len(non_missing)
    mean = std = minimum = maximum = None
    if column.data_type.is_numeric:
        numbers = parse_numeric_values(non_missing)
        if numbers:
            mean = sum(numbers) / len(numbers)
            variance = sum((x - mean) ** 2 for x in numbers) / len(numbers)
            std = math.sqrt(variance)
            minimum = min(numbers)
            maximum = max(numbers)
    lengths = [len(str(v)) for v in non_missing]
    avg_length = sum(lengths) / len(lengths) if lengths else 0.0
    return ColumnProfile(
        name=column.name,
        data_type=column.data_type,
        row_count=len(column),
        distinct_count=distinct,
        missing_count=missing,
        mean=mean,
        std=std,
        minimum=minimum,
        maximum=maximum,
        avg_length=avg_length,
    )
