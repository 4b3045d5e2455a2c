"""A small ontology model (classes, labels, hierarchy).

SemProp links attribute and table names to classes of a domain-specific
ontology (the paper uses EFO for ChEMBL) through embedding similarity, and
then relates schema elements transitively through the ontology.  This module
provides the ontology data structure: named classes with labels/synonyms and
an IS-A hierarchy, plus traversal helpers (ancestors, descendants, semantic
distance).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ["OntologyClass", "Ontology"]


@dataclass
class OntologyClass:
    """A class of the ontology.

    Attributes
    ----------
    name:
        Unique class identifier.
    labels:
        Human-readable labels and synonyms for the class.
    parents:
        Names of direct superclasses.
    """

    name: str
    labels: tuple[str, ...] = ()
    parents: tuple[str, ...] = ()


class Ontology:
    """A named collection of classes with an IS-A hierarchy."""

    def __init__(self, name: str, classes: Iterable[OntologyClass] = ()) -> None:
        self.name = name
        self._classes: dict[str, OntologyClass] = {}
        for cls in classes:
            self.add_class(cls)

    def add_class(self, ontology_class: OntologyClass) -> None:
        """Register a class (replacing any class with the same name)."""
        self._classes[ontology_class.name] = ontology_class
        self._fingerprint_cache: Optional[str] = None
        # Traversal memos are derived from the hierarchy: drop them on any
        # mutation, exactly like the fingerprint.
        self._ancestors_cache: dict[str, frozenset[str]] = {}
        self._related_cache: dict[tuple[str, str], bool] = {}

    def fingerprint(self) -> str:
        """Short content-based digest of the ontology (name, classes, edges).

        Stable across processes; matchers fold it into their own
        configuration fingerprint so prepared artifacts built under
        different ontologies can never be confused.  Cached between
        mutations because matchers consult it on the per-candidate hot path.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            payload = repr((self.name, sorted(repr(c) for c in self._classes.values())))
            cached = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()
            self._fingerprint_cache = cached
        return cached

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[OntologyClass]:
        return iter(self._classes.values())

    @property
    def class_names(self) -> list[str]:
        """All class names."""
        return list(self._classes)

    def get(self, class_name: str) -> Optional[OntologyClass]:
        """Return the class called *class_name*, or ``None``."""
        return self._classes.get(class_name)

    def labels_of(self, class_name: str) -> list[str]:
        """Return the labels of a class (including its name)."""
        cls = self._classes.get(class_name)
        if cls is None:
            return []
        return [cls.name, *cls.labels]

    def parents_of(self, class_name: str) -> list[str]:
        """Direct superclasses of *class_name*."""
        cls = self._classes.get(class_name)
        return list(cls.parents) if cls else []

    def _ancestors(self, class_name: str) -> frozenset[str]:
        """Memoized ancestor set (coherence scoring calls this per link pair)."""
        cache = getattr(self, "_ancestors_cache", None)
        if cache is None:
            cache = self._ancestors_cache = {}
        cached = cache.get(class_name)
        if cached is not None:
            return cached
        ancestors: set[str] = set()
        frontier = list(self.parents_of(class_name))
        while frontier:
            parent = frontier.pop()
            if parent in ancestors:
                continue
            ancestors.add(parent)
            frontier.extend(self.parents_of(parent))
        result = frozenset(ancestors)
        cache[class_name] = result
        return result

    def related(self, class_a: str, class_b: str) -> bool:
        """True when the two classes are equal or connected through IS-A."""
        if class_a == class_b:
            return True
        cache = getattr(self, "_related_cache", None)
        if cache is None:
            cache = self._related_cache = {}
        key = (class_a, class_b) if class_a <= class_b else (class_b, class_a)
        cached = cache.get(key)
        if cached is None:
            ancestors_a = self._ancestors(class_a)
            ancestors_b = self._ancestors(class_b)
            cached = (
                class_b in ancestors_a
                or class_a in ancestors_b
                or not ancestors_a.isdisjoint(ancestors_b)
            )
            cache[key] = cached
        return cached
