"""Schema tree model used by Cupid.

Cupid translates each schema into a tree of elements.  For a denormalised
tabular dataset the tree is shallow: a root schema node, a table node and one
leaf per column.  Each element carries a name, a category (Cupid groups
elements of compatible categories) and, for leaves, a data type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.data.table import Table
from repro.data.types import DataType

__all__ = ["SchemaElement", "SchemaTree", "build_schema_tree"]


@dataclass
class SchemaElement:
    """A node of a Cupid schema tree.

    Attributes
    ----------
    name:
        Element name (table or column name).
    category:
        Element category; Cupid only compares elements in compatible
        categories (here: ``"schema"``, ``"table"`` or the data type name for
        leaves).
    data_type:
        Leaf data type (``None`` for inner nodes).
    children:
        Child elements.
    """

    name: str
    category: str
    data_type: Optional[DataType] = None
    children: list["SchemaElement"] = field(default_factory=list)

    def add_child(self, child: "SchemaElement") -> None:
        """Append a child element."""
        self.children.append(child)


@dataclass
class SchemaTree:
    """A schema tree: its root element and the name of the table it describes.

    Cupid reads the tree through its fixed ``schema -> table -> columns``
    levels; the tree offers no generic traversal.
    """

    root: SchemaElement
    table_name: str


def build_schema_tree(table: Table) -> SchemaTree:
    """Build the Cupid schema tree of a tabular dataset.

    The tree is ``schema -> table -> columns``; column leaves carry their
    inferred data type as category so that Cupid's category compatibility
    check (numeric vs. textual leaves) has signal to work with.
    """
    root = SchemaElement(name=f"{table.name}_schema", category="schema")
    table_element = SchemaElement(name=table.name, category="table")
    root.add_child(table_element)
    for column in table.columns:
        leaf = SchemaElement(
            name=column.name,
            category=column.data_type.value,
            data_type=column.data_type,
        )
        table_element.add_child(leaf)
    return SchemaTree(root=root, table_name=table.name)
