"""Registry of the matching methods bundled with the suite.

The registry backs two things: the CLI / experiment runner, which looks up
matchers by name, and the Table I coverage report, which lists the match
types each method provides.

It is one static table from lowercase name to the module and class that
define the matcher.  :func:`matcher_class` imports that one module, so a
process that runs SemProp never loads Distribution-based's scipy solver or
Similarity Flooding's networkx graphs; :func:`available_matchers` and
:func:`coverage_table` import all of them.

Registered matchers participate in the two-phase prepare/match protocol of
:class:`~repro.matchers.base.BaseMatcher`.
"""

from __future__ import annotations

import importlib
from typing import Type

from repro.matchers.base import BaseMatcher, MatchType

__all__ = ["matcher_class", "create_matcher", "available_matchers", "coverage_table"]

#: Lowercase matcher name -> (defining module, class name).
_MATCHERS: dict[str, tuple[str, str]] = {
    "comaschema": ("repro.matchers.coma.matcher", "ComaSchemaMatcher"),
    "comainstance": ("repro.matchers.coma.matcher", "ComaInstanceMatcher"),
    "cupid": ("repro.matchers.cupid.matcher", "CupidMatcher"),
    "distributionbased": ("repro.matchers.distribution_based.matcher", "DistributionBasedMatcher"),
    "embdi": ("repro.matchers.embdi.matcher", "EmbDIMatcher"),
    "jaccardlevenshtein": ("repro.matchers.jaccard_levenshtein", "JaccardLevenshteinMatcher"),
    "semprop": ("repro.matchers.semprop.matcher", "SemPropMatcher"),
    "similarityflooding": ("repro.matchers.similarity_flooding.matcher", "SimilarityFloodingMatcher"),
}


def matcher_class(name: str) -> Type[BaseMatcher]:
    """Look up a matcher class by (case-insensitive) name, importing its module.

    Raises
    ------
    KeyError
        When no matcher with that name is registered.
    """
    key = name.lower()
    if key not in _MATCHERS:
        known = ", ".join(sorted(_MATCHERS))
        raise KeyError(f"unknown matcher {name!r}; known matchers: {known}")
    module, class_name = _MATCHERS[key]
    return getattr(importlib.import_module(module), class_name)


def create_matcher(name: str, **parameters: object) -> BaseMatcher:
    """Instantiate a registered matcher by name with keyword parameters.

    Convenience over ``matcher_class(name)(**parameters)`` for the CLI and
    scripts; raises the same ``KeyError`` for unknown names.
    """
    return matcher_class(name)(**parameters)


def available_matchers() -> dict[str, Type[BaseMatcher]]:
    """All registered matchers keyed by lowercase name (imports every one)."""
    return {key: matcher_class(key) for key in _MATCHERS}


def coverage_table() -> list[dict[str, object]]:
    """Reproduce Table I: per method, which match types it covers.

    Returns a list of records ``{"method": ..., "code": ..., <match type>: bool}``.
    """
    matchers = available_matchers()
    rows = []
    for key in sorted(matchers):
        cls = matchers[key]
        row: dict[str, object] = {"method": cls.name, "code": cls.code}
        for match_type in MatchType:
            row[match_type.value] = match_type in cls.match_types
        rows.append(row)
    return rows
