"""Sketching substrate: MinHash signatures for set-overlap estimation.

Import from the defining module, :mod:`repro.sketches.minhash`.
"""
