"""SemProp matcher package: :mod:`.matcher` and :mod:`.semantic`.

Quiet on purpose: the prepared-row codec imports :class:`.semantic.SemanticLink`,
and that must not load the matcher.
"""
