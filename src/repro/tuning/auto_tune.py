"""eTuner-style automatic parameter tuning of matching methods.

Two of the paper's observations motivate this module: (i) its own grid search
"exploited the ground truth", which is not available in the wild, and (ii)
eTuner showed that tuning matchers on *synthetically fabricated* scenarios
transfers to real data.  :class:`AutoTuner` implements exactly that loop:

1. fabricate dataset pairs (with known ground truth) from a seed table the
   user *does* have — e.g. one of the tables they are about to match;
2. grid-search a method's parameters on those fabricated pairs;
3. return the configuration with the best mean Recall@ground-truth, ready to
   be applied to the user's real matching problem.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.data.table import Table
from repro.experiments.parameters import ParameterGrid
from repro.experiments.runner import run_single_experiment
from repro.fabrication.fabricator import FabricationConfig, Fabricator
from repro.fabrication.pairs import DatasetPair, Scenario

__all__ = ["TuningOutcome", "AutoTuner"]


@dataclass(frozen=True)
class TuningOutcome:
    """Result of one auto-tuning run.

    Attributes
    ----------
    method:
        Display name of the tuned method.
    best_parameters:
        The winning configuration.
    best_mean_recall:
        Mean Recall@ground-truth the winner achieved on the fabricated pairs.
    leaderboard:
        Every evaluated configuration with its mean recall, best first.
    """

    method: str
    best_parameters: dict[str, object]
    best_mean_recall: float
    leaderboard: list[tuple[dict[str, object], float]] = field(default_factory=list)


class AutoTuner:
    """Tune a matcher's parameters on fabricated scenarios (eTuner-style).

    Parameters
    ----------
    fabrication_config:
        Controls the synthetic workload; defaults to a small grid.
    scenarios:
        The relatedness scenarios to fabricate; defaults to unionable +
        joinable, the two cases dataset discovery methods care about most.
    pairs_per_scenario:
        Cap on the number of fabricated pairs used per scenario (keeps the
        tuning loop cheap).
    """

    def __init__(
        self,
        fabrication_config: Optional[FabricationConfig] = None,
        scenarios: Sequence[Scenario] = (Scenario.UNIONABLE, Scenario.JOINABLE),
        pairs_per_scenario: int = 4,
    ) -> None:
        if pairs_per_scenario < 1:
            raise ValueError("pairs_per_scenario must be at least 1")
        self.fabrication_config = fabrication_config or FabricationConfig(seed=99)
        self.scenarios = tuple(scenarios)
        self.pairs_per_scenario = pairs_per_scenario

    def fabricate_workload(self, seed_table: Table) -> list[DatasetPair]:
        """Fabricate the synthetic tuning workload from *seed_table*."""
        fabricator = Fabricator(self.fabrication_config)
        pairs: list[DatasetPair] = []
        for scenario in self.scenarios:
            scenario_pairs = fabricator.fabricate(seed_table, scenarios=[scenario])
            pairs.extend(scenario_pairs[: self.pairs_per_scenario])
        return pairs

    def evaluate_configuration(
        self,
        grid: ParameterGrid,
        parameters: dict[str, object],
        pairs: Sequence[DatasetPair],
    ) -> float:
        """Mean Recall@ground-truth of one configuration over the workload."""
        matcher = grid.factory(**parameters)
        recalls = [
            run_single_experiment(matcher, pair, method_name=grid.method, parameters=parameters).recall_at_ground_truth
            for pair in pairs
        ]
        return statistics.fmean(recalls) if recalls else 0.0

    def tune(self, grid: ParameterGrid, seed_table: Table) -> TuningOutcome:
        """Grid-search *grid* on pairs fabricated from *seed_table*.

        Raises
        ------
        ValueError
            If the grid has no configurations at all.
        """
        pairs = self.fabricate_workload(seed_table)
        leaderboard: list[tuple[dict[str, object], float]] = []
        for parameters in grid.configurations():
            mean_recall = self.evaluate_configuration(grid, parameters, pairs)
            leaderboard.append((dict(parameters), mean_recall))
        if not leaderboard:
            raise ValueError(f"grid for {grid.method!r} has no configurations")
        leaderboard.sort(key=lambda item: -item[1])
        best_parameters, best_mean_recall = leaderboard[0]
        return TuningOutcome(
            method=grid.method,
            best_parameters=best_parameters,
            best_mean_recall=best_mean_recall,
            leaderboard=leaderboard,
        )
