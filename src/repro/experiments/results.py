"""Experiment result records and aggregation.

Every run of a (method configuration, dataset pair) combination produces an
:class:`ExperimentRecord`; a :class:`ResultSet` collects them and provides the
aggregations the paper reports: per-method/per-scenario boxplot statistics
(minimum, median, maximum — Figures 4-7), per-dataset recall tables
(Table IV) and average runtimes (Table V).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

__all__ = ["ExperimentRecord", "BoxplotStats", "ResultSet"]


@dataclass(frozen=True)
class ExperimentRecord:
    """Outcome of running one method configuration on one dataset pair."""

    method: str
    matcher_code: str
    pair_name: str
    scenario: str
    variant: Optional[str]
    dataset_source: Optional[str]
    parameters: dict[str, object]
    recall_at_ground_truth: float
    runtime_seconds: float
    ground_truth_size: int
    noisy_schema: Optional[bool] = None
    noisy_instances: Optional[bool] = None
    extra_metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Plain-dictionary form (JSON-serialisable)."""
        return asdict(self)


@dataclass(frozen=True)
class BoxplotStats:
    """Minimum / quartiles / median / maximum of a score sample."""

    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxplotStats":
        """Compute the statistics of a non-empty value sample."""
        if not values:
            raise ValueError("cannot compute boxplot statistics of an empty sample")
        ordered = sorted(values)
        quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [ordered[0]] * 3
        return cls(
            minimum=ordered[0],
            first_quartile=quartiles[0],
            median=statistics.median(ordered),
            third_quartile=quartiles[2],
            maximum=ordered[-1],
            mean=statistics.fmean(ordered),
            count=len(ordered),
        )


class ResultSet:
    """A collection of experiment records with aggregation helpers."""

    def __init__(self, records: Iterable[ExperimentRecord] = ()) -> None:
        self._records: list[ExperimentRecord] = list(records)

    def add(self, record: ExperimentRecord) -> None:
        """Append one record."""
        self._records.append(record)

    def extend(self, records: Iterable[ExperimentRecord]) -> None:
        """Append many records."""
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[ExperimentRecord]:
        """All records (copy)."""
        return list(self._records)

    # ------------------------------------------------------------------ #
    # filtering
    # ------------------------------------------------------------------ #
    def filter(self, predicate: Callable[[ExperimentRecord], bool]) -> "ResultSet":
        """Records satisfying *predicate*."""
        return ResultSet(r for r in self._records if predicate(r))

    def for_method(self, method: str) -> "ResultSet":
        """Records of one method (by display name)."""
        return self.filter(lambda r: r.method == method)

    def for_scenario(self, scenario: str) -> "ResultSet":
        """Records of one relatedness scenario."""
        return self.filter(lambda r: r.scenario == scenario)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def methods(self) -> list[str]:
        """Distinct method names, sorted."""
        return sorted({r.method for r in self._records})

    def scenarios(self) -> list[str]:
        """Distinct scenarios, sorted."""
        return sorted({r.scenario for r in self._records})

    def recall_values(self) -> list[float]:
        """All recall@ground-truth values."""
        return [r.recall_at_ground_truth for r in self._records]

    def boxplot_by_method_and_scenario(self) -> dict[tuple[str, str], BoxplotStats]:
        """Boxplot statistics per ``(method, scenario)`` — the Figure 4-7 data."""
        grouped: dict[tuple[str, str], list[float]] = {}
        for record in self._records:
            grouped.setdefault((record.method, record.scenario), []).append(
                record.recall_at_ground_truth
            )
        return {key: BoxplotStats.from_values(values) for key, values in grouped.items()}

    def best_recall_by_method(self) -> dict[str, float]:
        """Best recall@GT per method over all its configurations — Table IV style."""
        best: dict[str, float] = {}
        for record in self._records:
            current = best.get(record.method, 0.0)
            best[record.method] = max(current, record.recall_at_ground_truth)
        return best

    def mean_recall_by_method(self) -> dict[str, float]:
        """Mean recall@GT per method."""
        grouped: dict[str, list[float]] = {}
        for record in self._records:
            grouped.setdefault(record.method, []).append(record.recall_at_ground_truth)
        return {method: statistics.fmean(values) for method, values in grouped.items()}

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_json(self, path: str | Path) -> Path:
        """Write all records to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in self._records], handle, indent=2, default=str)
        return path
