"""Discrete optimisation substrate: the binary ILP solver."""

from repro.optimize.ilp import BinaryProgram, Constraint, ILPSolution

__all__ = ["BinaryProgram", "Constraint", "ILPSolution"]
