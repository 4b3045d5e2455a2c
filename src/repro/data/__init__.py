"""Tabular data substrate: tables, columns, types, CSV I/O and profiling."""
