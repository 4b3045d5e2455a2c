"""Cupid schema matcher package: :mod:`.matcher`, :mod:`.schema_tree`,
:mod:`.linguistic` and :mod:`.structural`.

Quiet on purpose: the prepared-row codec imports the schema tree records,
and that must not load the matcher.
"""
