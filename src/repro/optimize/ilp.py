"""A small 0/1 integer linear program solver (branch & bound).

The distribution-based matcher finishes with an integer program that decides
the final clusters of related columns (the paper's authors used CPLEX/PuLP).
No external solver is available offline, so this module implements a compact
exact branch-and-bound solver over binary variables with linear constraints.
Problem sizes in this suite are tiny (tens of variables), so exactness and
clarity win over raw speed; an LP relaxation computed with scipy provides the
bounding function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["Constraint", "BinaryProgram", "ILPSolution"]


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coeffs[i] * x[i]) (<=|>=|==) bound``."""

    coefficients: dict[int, float]
    sense: str
    bound: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")

    def satisfied(self, assignment: Sequence[float], tolerance: float = 1e-9) -> bool:
        """Check the constraint on a full variable assignment."""
        value = sum(coeff * assignment[idx] for idx, coeff in self.coefficients.items())
        if self.sense == "<=":
            return value <= self.bound + tolerance
        if self.sense == ">=":
            return value >= self.bound - tolerance
        return abs(value - self.bound) <= tolerance


@dataclass
class ILPSolution:
    """Result of a :class:`BinaryProgram` solve."""

    status: str
    objective: float
    assignment: dict[int, int] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class BinaryProgram:
    """A maximisation problem over binary variables with linear constraints.

    Example
    -------
    >>> program = BinaryProgram(num_variables=2)
    >>> program.set_objective({0: 1.0, 1: 2.0})
    >>> program.add_constraint({0: 1.0, 1: 1.0}, "<=", 1.0)
    >>> program.solve().assignment
    {0: 0, 1: 1}
    """

    def __init__(self, num_variables: int) -> None:
        if num_variables < 0:
            raise ValueError("num_variables must be non-negative")
        self.num_variables = num_variables
        self._objective = np.zeros(num_variables, dtype=float)
        self._constraints: list[Constraint] = []

    def set_objective(self, coefficients: dict[int, float]) -> None:
        """Set the (maximisation) objective coefficients."""
        self._objective = np.zeros(self.num_variables, dtype=float)
        for index, coeff in coefficients.items():
            self._check_index(index)
            self._objective[index] = coeff

    def add_constraint(self, coefficients: dict[int, float], sense: str, bound: float) -> None:
        """Add a linear constraint over variable indices."""
        for index in coefficients:
            self._check_index(index)
        self._constraints.append(Constraint(dict(coefficients), sense, float(bound)))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_variables:
            raise IndexError(f"variable index {index} out of range (n={self.num_variables})")

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def _lp_relaxation(self, fixed: dict[int, int]) -> Optional[tuple[float, np.ndarray]]:
        """Solve the LP relaxation with some variables fixed.

        Returns ``(upper bound, fractional solution)`` or ``None`` when the
        relaxation is infeasible.
        """
        bounds = []
        for i in range(self.num_variables):
            if i in fixed:
                bounds.append((fixed[i], fixed[i]))
            else:
                bounds.append((0.0, 1.0))

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for constraint in self._constraints:
            row = np.zeros(self.num_variables)
            for index, coeff in constraint.coefficients.items():
                row[index] = coeff
            if constraint.sense == "<=":
                a_ub.append(row)
                b_ub.append(constraint.bound)
            elif constraint.sense == ">=":
                a_ub.append(-row)
                b_ub.append(-constraint.bound)
            else:
                a_eq.append(row)
                b_eq.append(constraint.bound)

        from scipy.optimize import linprog  # loaded by the first solve, not on import

        result = linprog(
            -self._objective,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        return -result.fun, result.x

    def _feasible(self, assignment: Sequence[float]) -> bool:
        return all(constraint.satisfied(assignment) for constraint in self._constraints)

    def solve(self, max_nodes: int = 100_000) -> ILPSolution:
        """Solve the program by branch and bound.

        Parameters
        ----------
        max_nodes:
            Safety cap on the number of explored branch-and-bound nodes.
        """
        if self.num_variables == 0:
            return ILPSolution(status="optimal", objective=0.0, assignment={})

        best_value = -np.inf
        best_assignment: Optional[np.ndarray] = None
        stack: list[dict[int, int]] = [{}]
        explored = 0

        while stack and explored < max_nodes:
            fixed = stack.pop()
            explored += 1
            relaxation = self._lp_relaxation(fixed)
            if relaxation is None:
                continue
            upper_bound, fractional = relaxation
            if upper_bound <= best_value + 1e-9:
                continue
            # Find the most fractional free variable.
            free_fractionality = [
                (abs(fractional[i] - 0.5), i)
                for i in range(self.num_variables)
                if i not in fixed and 1e-6 < fractional[i] < 1 - 1e-6
            ]
            if not free_fractionality:
                rounded = np.round(fractional).astype(int)
                if self._feasible(rounded):
                    value = float(self._objective @ rounded)
                    if value > best_value:
                        best_value = value
                        best_assignment = rounded
                continue
            _, branch_var = min(free_fractionality)
            for forced in (1, 0):
                child = dict(fixed)
                child[branch_var] = forced
                stack.append(child)

        if best_assignment is None:
            return ILPSolution(status="infeasible", objective=float("-inf"))
        assignment = {i: int(best_assignment[i]) for i in range(self.num_variables)}
        return ILPSolution(status="optimal", objective=float(best_value), assignment=assignment)
