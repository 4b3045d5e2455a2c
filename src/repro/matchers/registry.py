"""Registry of the matching methods bundled with the suite.

The registry backs two things: the CLI / experiment runner, which looks up
matchers by name, and the Table I coverage report, which lists the match
types each method provides.

Registered matchers participate in the two-phase prepare/match protocol of
:class:`~repro.matchers.base.BaseMatcher`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Type

from repro.matchers.base import BaseMatcher, MatchType

__all__ = [
    "register_matcher",
    "matcher_class",
    "create_matcher",
    "available_matchers",
    "coverage_table",
]

_REGISTRY: dict[str, Type[BaseMatcher]] = {}


def register_matcher(cls: Type[BaseMatcher]) -> Type[BaseMatcher]:
    """Class decorator registering a matcher under its ``name`` attribute."""
    key = cls.name.lower()
    _REGISTRY[key] = cls
    return cls


def matcher_class(name: str) -> Type[BaseMatcher]:
    """Look up a matcher class by (case-insensitive) name.

    Raises
    ------
    KeyError
        When no matcher with that name is registered.
    """
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown matcher {name!r}; known matchers: {known}")
    return _REGISTRY[key]


def create_matcher(name: str, **parameters: object) -> BaseMatcher:
    """Instantiate a registered matcher by name with keyword parameters.

    Convenience over ``matcher_class(name)(**parameters)`` for the CLI and
    scripts; raises the same ``KeyError`` for unknown names.
    """
    return matcher_class(name)(**parameters)


def available_matchers() -> dict[str, Type[BaseMatcher]]:
    """All registered matchers keyed by lowercase name."""
    return dict(_REGISTRY)


def coverage_table() -> list[dict[str, object]]:
    """Reproduce Table I: per method, which match types it covers.

    Returns a list of records ``{"method": ..., "code": ..., <match type>: bool}``.
    """
    rows = []
    for key in sorted(_REGISTRY):
        cls = _REGISTRY[key]
        row: dict[str, object] = {"method": cls.name, "code": cls.code}
        for match_type in MatchType:
            row[match_type.value] = match_type in cls.match_types
        rows.append(row)
    return rows
