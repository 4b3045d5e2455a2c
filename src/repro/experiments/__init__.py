"""Experiment suite: parameter grids, runner, aggregation and reports."""
