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


def profile_column(column: Column) -> ColumnProfile:
    """Compute a :class:`ColumnProfile` for *column* from its
    :meth:`~repro.data.table.Column.scan`.

    The distinct, missing and length statistics come from the scan's
    counts; the numeric summaries are still summed cell by cell in column
    order, so every float is the one a per-cell pass computes.
    """
    scan = column.scan()
    size = scan.size
    mean = std = minimum = maximum = None
    if column.data_type.is_numeric:
        cells = column.values if size == len(column) else column.non_missing()
        numbers = parse_numeric_values(cells)
        if numbers:
            mean = sum(numbers) / len(numbers)
            variance = sum((x - mean) ** 2 for x in numbers) / len(numbers)
            std = math.sqrt(variance)
            minimum = min(numbers)
            maximum = max(numbers)
    return ColumnProfile(
        name=column.name,
        data_type=column.data_type,
        row_count=len(column),
        distinct_count=len(scan.counts),
        missing_count=len(column) - size,
        mean=mean,
        std=std,
        minimum=minimum,
        maximum=maximum,
        avg_length=scan.rendered_length / size if size else 0.0,
    )
