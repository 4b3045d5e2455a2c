"""Method parameterisation (Table II of the paper).

Each matching method is run under a grid of parameter variants; this module
defines those grids and expands them into concrete matcher instances
(Figure 1, step 2).  Where the paper's authors provide default parameters
(Similarity Flooding, COMA, EmbDI) a single configuration is used; for the
other methods a grid search over the ranges of Table II is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping

from repro.matchers.base import BaseMatcher
from repro.matchers.coma import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.cupid import CupidMatcher
from repro.matchers.distribution_based import DistributionBasedMatcher
from repro.matchers.embdi import EmbDIMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.semprop import SemPropMatcher
from repro.matchers.similarity_flooding import SimilarityFloodingMatcher

__all__ = [
    "ParameterGrid",
    "default_parameter_grids",
    "expand_grid",
    "total_configurations",
]


def _float_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive float range with rounding to avoid accumulation error."""
    values = []
    current = start
    while current <= stop + 1e-9:
        values.append(round(current, 6))
        current += step
    return tuple(values)


@dataclass(frozen=True)
class ParameterGrid:
    """A named grid of parameter values for one matcher class.

    Attributes
    ----------
    method:
        Display name used in experiment records (e.g. ``"Cupid"``).
    factory:
        Callable building the matcher from keyword arguments.
    grid:
        Mapping from parameter name to the tuple of values it takes.
    fixed:
        Parameters passed to every configuration unchanged.
    """

    method: str
    factory: Callable[..., BaseMatcher]
    grid: Mapping[str, tuple]
    fixed: Mapping[str, object] = field(default_factory=dict)

    def configurations(self) -> Iterator[dict[str, object]]:
        """Yield every parameter combination of the grid (fixed values merged)."""
        if not self.grid:
            yield dict(self.fixed)
            return
        names = sorted(self.grid)
        for combo in product(*(self.grid[name] for name in names)):
            params = dict(self.fixed)
            params.update(dict(zip(names, combo)))
            yield params

    def matchers(self) -> Iterator[tuple[dict[str, object], BaseMatcher]]:
        """Yield ``(parameters, matcher instance)`` for every configuration."""
        for params in self.configurations():
            yield params, self.factory(**params)

    def size(self) -> int:
        """Number of configurations in the grid."""
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size


def default_parameter_grids(fast: bool = False) -> dict[str, ParameterGrid]:
    """The Table II grids, keyed by method name.

    Parameters
    ----------
    fast:
        When True, the grids are thinned to one or two configurations per
        method so the full pipeline runs at laptop/benchmark scale; the
        parameter *ranges* are unchanged, only the number of sampled points.
    """
    cupid_values = {
        "leaf_w_struct": _float_range(0.0, 0.6, 0.2),
        "w_struct": _float_range(0.0, 0.6, 0.2),
        "th_accept": _float_range(0.3, 0.8, 0.1),
    }
    dist_strict = {
        "phase1_threshold": _float_range(0.1, 0.2, 0.05),
        "phase2_threshold": _float_range(0.1, 0.2, 0.05),
    }
    dist_lenient = {
        "phase1_threshold": _float_range(0.3, 0.5, 0.1),
        "phase2_threshold": _float_range(0.3, 0.5, 0.1),
    }
    semprop_values = {
        "minhash_threshold": _float_range(0.2, 0.3, 0.1),
        "semantic_threshold": _float_range(0.4, 0.6, 0.1),
        "coherent_threshold": _float_range(0.2, 0.4, 0.2),
    }
    jl_values = {"threshold": _float_range(0.4, 0.8, 0.1)}

    if fast:
        cupid_values = {
            "leaf_w_struct": (0.2,),
            "w_struct": (0.2,),
            "th_accept": (0.5, 0.7),
        }
        dist_strict = {"phase1_threshold": (0.15,), "phase2_threshold": (0.15,)}
        dist_lenient = {"phase1_threshold": (0.4,), "phase2_threshold": (0.4,)}
        semprop_values = {
            "minhash_threshold": (0.25,),
            "semantic_threshold": (0.5,),
            "coherent_threshold": (0.3,),
        }
        jl_values = {"threshold": (0.6, 0.8)}

    grids = {
        "Cupid": ParameterGrid("Cupid", CupidMatcher, cupid_values),
        "SimilarityFlooding": ParameterGrid(
            "SimilarityFlooding",
            SimilarityFloodingMatcher,
            {},
            fixed={"coefficient_policy": "inverse_average", "fixpoint_formula": "c"},
        ),
        "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
        "ComaInstance": ParameterGrid("ComaInstance", ComaInstanceMatcher, {}, fixed={"threshold": 0.0}),
        "DistributionBased#1": ParameterGrid(
            "DistributionBased#1", DistributionBasedMatcher, dist_strict
        ),
        "DistributionBased#2": ParameterGrid(
            "DistributionBased#2", DistributionBasedMatcher, dist_lenient
        ),
        "SemProp": ParameterGrid("SemProp", SemPropMatcher, semprop_values),
        "EmbDI": ParameterGrid(
            "EmbDI",
            EmbDIMatcher,
            {},
            fixed={"window_size": 3, "sentence_length": 20 if fast else 60, "dimensions": 32 if fast else 300},
        ),
        "JaccardLevenshtein": ParameterGrid("JaccardLevenshtein", JaccardLevenshteinMatcher, jl_values),
    }
    return grids


def expand_grid(grid: ParameterGrid) -> list[tuple[dict[str, object], BaseMatcher]]:
    """Materialise all ``(parameters, matcher)`` pairs of a grid."""
    return list(grid.matchers())


def total_configurations(grids: Mapping[str, ParameterGrid]) -> int:
    """Total number of method configurations over all grids (Table II count)."""
    return sum(grid.size() for grid in grids.values())
