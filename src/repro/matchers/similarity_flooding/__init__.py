"""Similarity Flooding matcher package: :mod:`.matcher`."""
