"""Dataset pairs with ground truth.

A :class:`DatasetPair` bundles everything one matching experiment needs: the
source and target tables, the ground-truth column correspondences and
metadata describing how the pair was fabricated (scenario, noise flags,
overlap parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.data.table import Table

__all__ = ["Scenario", "NoiseVariant", "DatasetPair"]


class Scenario(str, Enum):
    """The four dataset relatedness scenarios of Section III."""

    UNIONABLE = "unionable"
    VIEW_UNIONABLE = "view_unionable"
    JOINABLE = "joinable"
    SEMANTICALLY_JOINABLE = "semantically_joinable"


class NoiseVariant(str, Enum):
    """The schema/instance noise combinations of Figure 3.

    ``VS``/``NS`` = verbatim/noisy schemata, ``VI``/``NI`` = verbatim/noisy
    instances.
    """

    VERBATIM_SCHEMA_VERBATIM_INSTANCES = "VS/VI"
    NOISY_SCHEMA_VERBATIM_INSTANCES = "NS/VI"
    VERBATIM_SCHEMA_NOISY_INSTANCES = "VS/NI"
    NOISY_SCHEMA_NOISY_INSTANCES = "NS/NI"

    @property
    def noisy_schema(self) -> bool:
        """True when the variant perturbs column names."""
        return self in (
            NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES,
            NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES,
        )

    @property
    def noisy_instances(self) -> bool:
        """True when the variant perturbs cell values."""
        return self in (
            NoiseVariant.VERBATIM_SCHEMA_NOISY_INSTANCES,
            NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES,
        )


@dataclass
class DatasetPair:
    """A fabricated (or curated) dataset pair with ground truth.

    Attributes
    ----------
    name:
        Identifier of the pair (used in experiment records).
    source / target:
        The two tables to be matched.
    ground_truth:
        Correct correspondences as ``(source column, target column)`` pairs.
    scenario:
        The relatedness scenario this pair instantiates.
    variant:
        The noise variant applied during fabrication (``None`` for curated
        pairs).
    metadata:
        Free-form fabrication parameters (row/column overlap, source dataset).
    """

    name: str
    source: Table
    target: Table
    ground_truth: list[tuple[str, str]]
    scenario: Scenario
    variant: Optional[NoiseVariant] = None
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def ground_truth_size(self) -> int:
        """Number of ground-truth correspondences."""
        return len(self.ground_truth)

    def describe(self) -> str:
        """One-line description used in reports."""
        variant = self.variant.value if self.variant else "curated"
        return (
            f"{self.name}: {self.scenario.value} [{variant}] "
            f"{self.source.shape} vs {self.target.shape}, "
            f"|GT|={self.ground_truth_size}"
        )

    def validate(self) -> None:
        """Raise ``ValueError`` when the ground truth references unknown columns."""
        missing = [
            pair
            for pair in self.ground_truth
            if pair[0] not in self.source or pair[1] not in self.target
        ]
        if missing:
            raise ValueError(
                f"pair {self.name!r}: ground truth references unknown columns: {missing[:5]}"
            )
