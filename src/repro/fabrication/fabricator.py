"""The dataset-pair fabricator (Figure 1, step 1).

Given a seed table, the fabricator produces the full grid of dataset pairs of
Figure 3: every relatedness scenario, every applicable noise variant and
every overlap setting.  The paper fabricates 180 pairs per dataset source by
repeating the grid with different random splits; the ``repetitions`` knob
reproduces that behaviour at configurable scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.data.table import Table
from repro.fabrication.pairs import DatasetPair, NoiseVariant, Scenario
from repro.fabrication.scenarios import (
    fabricate_joinable,
    fabricate_semantically_joinable,
    fabricate_unionable,
    fabricate_view_unionable,
)

__all__ = ["FabricationConfig", "Fabricator"]

_ALL_VARIANTS = (
    NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES,
    NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES,
    NoiseVariant.VERBATIM_SCHEMA_NOISY_INSTANCES,
    NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES,
)
_VERBATIM_INSTANCE_VARIANTS = (
    NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES,
    NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES,
)
_NOISY_INSTANCE_VARIANTS = (
    NoiseVariant.VERBATIM_SCHEMA_NOISY_INSTANCES,
    NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES,
)


@dataclass(frozen=True)
class FabricationConfig:
    """Fabrication grid parameters (defaults follow Figure 3).

    Attributes
    ----------
    unionable_row_overlaps:
        Row overlaps of the unionable scenario.
    view_unionable_column_overlaps:
        Column overlaps of the view-unionable scenario.
    joinable_column_overlaps:
        Column overlaps of the (semantically) joinable scenarios; the integer
        ``1`` means "exactly one shared column".
    include_row_split_joins:
        Also fabricate joinable pairs that combine a vertical split with a
        50% row-overlap horizontal split.
    repetitions:
        How many times the whole grid is instantiated with fresh random
        splits.
    instance_noise_rate:
        Fraction of cells perturbed in noisy-instance variants.
    seed:
        Root random seed.
    """

    unionable_row_overlaps: tuple[float, ...] = (0.0, 0.5, 1.0)
    view_unionable_column_overlaps: tuple[float, ...] = (0.3, 0.5, 0.7)
    joinable_column_overlaps: tuple[object, ...] = (1, 0.3, 0.5, 0.7)
    include_row_split_joins: bool = True
    repetitions: int = 1
    instance_noise_rate: float = 0.5
    seed: int = 1234


class Fabricator:
    """Fabricates the full scenario grid of dataset pairs from seed tables."""

    def __init__(self, config: FabricationConfig | None = None) -> None:
        self.config = config or FabricationConfig()

    # ------------------------------------------------------------------ #
    # per-scenario grids
    # ------------------------------------------------------------------ #
    def unionable_pairs(self, seed_table: Table, rng: random.Random) -> list[DatasetPair]:
        """All unionable pairs of the grid for one repetition."""
        pairs = []
        for overlap in self.config.unionable_row_overlaps:
            for variant in _ALL_VARIANTS:
                pairs.append(
                    fabricate_unionable(
                        seed_table,
                        variant,
                        row_overlap=overlap,
                        rng=rng,
                        instance_noise_rate=self.config.instance_noise_rate,
                    )
                )
        return pairs

    def view_unionable_pairs(self, seed_table: Table, rng: random.Random) -> list[DatasetPair]:
        """All view-unionable pairs of the grid for one repetition."""
        pairs = []
        for overlap in self.config.view_unionable_column_overlaps:
            for variant in _ALL_VARIANTS:
                pairs.append(
                    fabricate_view_unionable(
                        seed_table,
                        variant,
                        column_overlap=overlap,
                        rng=rng,
                        instance_noise_rate=self.config.instance_noise_rate,
                    )
                )
        return pairs

    def joinable_pairs(self, seed_table: Table, rng: random.Random) -> list[DatasetPair]:
        """All joinable pairs of the grid for one repetition."""
        pairs = []
        for overlap in self.config.joinable_column_overlaps:
            for variant in _VERBATIM_INSTANCE_VARIANTS:
                pairs.append(
                    fabricate_joinable(
                        seed_table, variant, column_overlap=overlap, rng=rng, with_row_split=False
                    )
                )
                if self.config.include_row_split_joins:
                    pairs.append(
                        fabricate_joinable(
                            seed_table, variant, column_overlap=overlap, rng=rng, with_row_split=True
                        )
                    )
        return pairs

    def semantically_joinable_pairs(self, seed_table: Table, rng: random.Random) -> list[DatasetPair]:
        """All semantically-joinable pairs of the grid for one repetition."""
        pairs = []
        for overlap in self.config.joinable_column_overlaps:
            for variant in _NOISY_INSTANCE_VARIANTS:
                pairs.append(
                    fabricate_semantically_joinable(
                        seed_table,
                        variant,
                        column_overlap=overlap,
                        rng=rng,
                        with_row_split=False,
                        instance_noise_rate=self.config.instance_noise_rate,
                    )
                )
                if self.config.include_row_split_joins:
                    pairs.append(
                        fabricate_semantically_joinable(
                            seed_table,
                            variant,
                            column_overlap=overlap,
                            rng=rng,
                            with_row_split=True,
                            instance_noise_rate=self.config.instance_noise_rate,
                        )
                    )
        return pairs

    # ------------------------------------------------------------------ #
    # full grids
    # ------------------------------------------------------------------ #
    def fabricate(
        self,
        seed_table: Table,
        scenarios: Sequence[Scenario] | None = None,
    ) -> list[DatasetPair]:
        """Fabricate the whole grid (all repetitions) from *seed_table*.

        Parameters
        ----------
        seed_table:
            The original table whose splits define the ground truth.
        scenarios:
            Optional subset of scenarios to fabricate; defaults to all four.
        """
        wanted = set(scenarios) if scenarios else set(Scenario)
        pairs: list[DatasetPair] = []
        for repetition in range(self.config.repetitions):
            rng = random.Random((self.config.seed, seed_table.name, repetition).__hash__())
            if Scenario.UNIONABLE in wanted:
                pairs.extend(self._tagged(self.unionable_pairs(seed_table, rng), repetition))
            if Scenario.VIEW_UNIONABLE in wanted:
                pairs.extend(self._tagged(self.view_unionable_pairs(seed_table, rng), repetition))
            if Scenario.JOINABLE in wanted:
                pairs.extend(self._tagged(self.joinable_pairs(seed_table, rng), repetition))
            if Scenario.SEMANTICALLY_JOINABLE in wanted:
                pairs.extend(
                    self._tagged(self.semantically_joinable_pairs(seed_table, rng), repetition)
                )
        return pairs

    @staticmethod
    def _tagged(pairs: list[DatasetPair], repetition: int) -> list[DatasetPair]:
        if repetition == 0:
            return pairs
        for pair in pairs:
            pair.name = f"{pair.name}_rep{repetition}"
            pair.metadata["repetition"] = repetition
        return pairs
