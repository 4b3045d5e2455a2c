"""Discrete optimisation substrate: the binary ILP solver (:mod:`.ilp`),
which loads scipy only when it solves."""
