"""Cupid schema matcher package."""

from repro.matchers.cupid.linguistic import name_similarity
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.cupid.schema_tree import SchemaElement, SchemaTree, build_schema_tree
from repro.matchers.cupid.structural import CupidWeights, tree_match

__all__ = [
    "CupidMatcher",
    "CupidWeights",
    "SchemaElement",
    "SchemaTree",
    "build_schema_tree",
    "tree_match",
    "name_similarity",
]
