"""Synthetic dataset sources standing in for the paper's data (Section V)."""
