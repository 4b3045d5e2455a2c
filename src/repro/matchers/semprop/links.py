"""SemProp's link record, apart from the embeddings and ontology it is made from.

The prepared-row codec (:mod:`repro.discovery.prepared_codec`) stores and
rebuilds :class:`SemanticLink` values, so every process that opens a lake
imports this module; it imports nothing, so that such a process does not
load :mod:`repro.embeddings` or :mod:`repro.ontology`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SemanticLink"]


@dataclass(frozen=True)
class SemanticLink:
    """A link from a schema element to an ontology class."""

    element: str
    ontology_class: str
    strength: float
