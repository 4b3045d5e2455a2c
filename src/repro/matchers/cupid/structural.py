"""Cupid's structural matching phase (TreeMatch), as matrix expressions.

Structural similarity of two elements reflects how similar their *contexts*
are: for leaves, the similarity of their ancestors; for inner nodes, the
fraction of strongly linked leaves in their subtrees.  A tabular schema has
one shape, ``schema -> table -> columns`` (:func:`build_schema_tree`), and on
it the post-order TreeMatch sweep of the Cupid paper is a handful of
elementwise expressions over ``|A| x |B|`` float64 matrices, one cell per
column pair:

1. ``lsim = types * names`` and
   ``wsim = leaf_w_struct * types + (1 - leaf_w_struct) * lsim``, where
   ``names`` holds the columns' name similarities (memoised per process by
   :func:`~repro.matchers.cupid.linguistic.name_similarities`) and ``types``
   their data-type compatibilities;
2. the inner-node pairs are visited in post-order: (table, table),
   (table, schema), (schema, table), (schema, schema).  Every inner node
   spans every column of its side, so each pair's ``ssim`` is the share of
   cells with ``wsim > th_accept``, and its weight is
   ``w_struct * ssim + (1 - w_struct) * lsim`` of the two node names (name
   similarity times 1.0 for equal categories, 0.5 otherwise);
3. a weight above ``th_high`` (below ``th_low``) rescales every cell by
   ``c_inc`` (``c_dec``):
   ``wsim = leaf_w_struct * min(1, wsim * factor) + (1 - leaf_w_struct) * lsim``.

Each elementwise float64 operation is the IEEE operation a per-pair scalar
loop performs, in the same order, so every score is the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.data.types import TYPE_COMPATIBILITY_MATRIX, TYPE_INDEX, DataType
from repro.matchers.cupid.linguistic import name_similarities
from repro.matchers.cupid.schema_tree import SchemaElement, SchemaTree
from repro.text.thesaurus import Thesaurus

__all__ = ["CupidWeights", "tree_match"]

@dataclass(frozen=True)
class CupidWeights:
    """Weights and thresholds of the TreeMatch computation.

    Attributes
    ----------
    w_struct:
        Weight of structural similarity for inner nodes.
    leaf_w_struct:
        Weight of structural similarity for leaves.
    th_accept:
        Similarity threshold above which a leaf pair is considered strongly
        linked.
    th_high / th_low:
        Thresholds steering the increase/decrease adjustment of leaf
        similarities after an inner node is processed.
    c_inc / c_dec:
        Multiplicative factors applied during adjustment.
    """

    w_struct: float = 0.2
    leaf_w_struct: float = 0.2
    th_accept: float = 0.7
    th_high: float = 0.6
    th_low: float = 0.35
    c_inc: float = 1.2
    c_dec: float = 0.9


def _levels(tree: SchemaTree) -> tuple[SchemaElement, SchemaElement, list[SchemaElement]]:
    """The schema node, table node and column leaves of *tree*.

    Raises ``ValueError`` for any other shape than the one
    :func:`build_schema_tree` builds: a ``"schema"`` root whose one child is
    a ``"table"`` node whose children, if any, are leaves.
    """
    schema = tree.root
    table = schema.children[0] if len(schema.children) == 1 else None
    if (
        schema.category != "schema"
        or table is None
        or table.category != "table"
        or any(leaf.children for leaf in table.children)
    ):
        raise ValueError(
            f"TreeMatch takes a schema -> table -> columns tree; {tree.table_name!r} is not one"
        )
    return schema, table, table.children


def tree_match(
    tree_a: SchemaTree,
    tree_b: SchemaTree,
    weights: CupidWeights | None = None,
    thesaurus: Thesaurus | None = None,
) -> np.ndarray:
    """Run TreeMatch and return weighted similarities for leaf (column) pairs.

    Returns
    -------
    numpy.ndarray
        ``wsim``: a row per leaf (column) of *tree_a*, a column per leaf of *tree_b*.
    """
    weights = weights or CupidWeights()
    schema_a, table_a, leaves_a = _levels(tree_a)
    schema_b, table_b, leaves_b = _levels(tree_b)
    if not leaves_a or not leaves_b:
        return np.zeros((len(leaves_a), len(leaves_b)))
    names_a = [leaf.name for leaf in leaves_a]
    names_b = [leaf.name for leaf in leaves_b]
    name_scores = np.array(name_similarities(names_a, names_b, thesaurus))
    types_a = [TYPE_INDEX[leaf.data_type or DataType.UNKNOWN] for leaf in leaves_a]
    types_b = [TYPE_INDEX[leaf.data_type or DataType.UNKNOWN] for leaf in leaves_b]
    types = TYPE_COMPATIBILITY_MATRIX[types_a][:, types_b]

    leaf_w = weights.leaf_w_struct
    lsim = types * name_scores.reshape(types.shape)
    wsim = leaf_w * types + (1.0 - leaf_w) * lsim
    inner_a, inner_b = (table_a, schema_a), (table_b, schema_b)
    inner_scores = name_similarities(
        [node.name for node in inner_a], [node.name for node in inner_b], thesaurus
    )
    for (node_a, node_b), node_score in zip(product(inner_a, inner_b), inner_scores):
        ssim = np.count_nonzero(wsim > weights.th_accept) / wsim.size
        category = 1.0 if node_a.category == node_b.category else 0.5
        node_wsim = weights.w_struct * ssim + (1.0 - weights.w_struct) * (category * node_score)
        if node_wsim > weights.th_high:
            factor = weights.c_inc
        elif node_wsim < weights.th_low:
            factor = weights.c_dec
        else:
            factor = 1.0
        if factor != 1.0:
            wsim = leaf_w * np.minimum(1.0, wsim * factor) + (1.0 - leaf_w) * lsim

    return wsim
