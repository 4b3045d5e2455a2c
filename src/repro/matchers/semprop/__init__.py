"""SemProp matcher package: :mod:`.matcher`, :mod:`.semantic` and :mod:`.links`.

Quiet on purpose: the prepared-row codec imports :class:`.links.SemanticLink`,
and that must load neither the matcher nor the embeddings and ontology
:mod:`.semantic` links with.
"""
