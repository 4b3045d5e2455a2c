"""Content fingerprints of tables.

A single deterministic digest identifies a table's full schema + cell
content.  Two subsystems key caches on it:

* the :class:`~repro.lake.store.SketchStore` uses it for cache invalidation
  (re-adding an unchanged table is a no-op);
* the :class:`~repro.discovery.prepared.PreparedTableCache` combines it with
  a matcher fingerprint to reuse prepared tables across discovery queries.

The function lives here (rather than in ``repro.lake``) because the
discovery layer must not depend on the lake subsystem.
"""

from __future__ import annotations

import hashlib

from repro.data.table import Table

__all__ = ["table_content_hash"]


def table_content_hash(table: Table) -> str:
    """Deterministic digest of a table's schema and cell values.

    Caches key invalidation on this hash: re-adding a table whose content is
    unchanged is a cache hit, while any cell/schema change produces a
    different digest.  Memoised on the table (immutable by convention).
    """
    if table._content_hash is not None:
        return table._content_hash
    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    # Encode the shape too: without the column/row counts a 1x4 table and a
    # 2x1 table with the same flat value stream would collide.
    update(table.num_columns.to_bytes(8, "little"))
    for column in table.columns:
        # Length-prefix every field so adjacent values can never be confused
        # with one longer value (or a None with a literal sentinel string);
        # the loop is inlined, as a call per cell costs more than its hashing.
        for field in (column.name, column.data_type.value):
            payload = field.encode("utf-8")
            update(len(payload).to_bytes(8, "little"))
            update(payload)
        update(len(column.values).to_bytes(8, "little"))
        for value in column.values:
            if value is None:
                update(b"\xff" * 8)  # length no real payload can have
            else:
                payload = str(value).encode("utf-8")
                update(len(payload).to_bytes(8, "little"))
                update(payload)
    table._content_hash = hasher.hexdigest()
    return table._content_hash
