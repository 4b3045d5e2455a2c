"""Effectiveness metrics: ranked-list and classic 1-1 measures."""
