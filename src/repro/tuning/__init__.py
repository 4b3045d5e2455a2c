"""Automatic (eTuner-style) parameter tuning for matching methods."""
