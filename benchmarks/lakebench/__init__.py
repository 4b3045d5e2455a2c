"""lakebench: one seeded harness, four workloads, end-to-end + per-layer numbers.

See README.md in this directory.
"""
