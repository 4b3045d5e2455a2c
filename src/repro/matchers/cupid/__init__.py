"""Cupid schema matcher package: :mod:`.matcher`, :mod:`.schema_tree`,
:mod:`.linguistic` and :mod:`.structural`."""
