"""Versioned on-disk store of table sketches.

The store is the persistent half of the lake index: sketches are computed
once when a table is added and survive process restarts, so a discovery
query against a 10k-table lake never re-profiles the lake.  SQLite is used
as the storage engine (stdlib, single file, transactional); each table is
one row whose ``sketch`` column holds :meth:`TableSketch.to_bytes
<repro.lake.profiles.TableSketch.to_bytes>` (a JSON skeleton, ``<u4``
signatures, ``<f8`` histograms) verbatim — the bytes a published snapshot
hash-pins, so publish and pull move rows without decoding them.  Its
``digest`` column is the raw SHA-256 of those bytes, computed in the one
place a row is written (:meth:`SketchStore._write_row`): publish names a
row's blob by it without reading the row.

Consistency properties:

* **Cache invalidation** — :meth:`SketchStore.add_table` hashes the table's
  content and skips re-sketching when the stored hash matches, so repeated
  builds over an unchanged lake are cheap.
* **Versioning** — every mutation bumps a monotone store version, letting an
  in-memory :class:`~repro.lake.index.LakeIndex` detect staleness cheaply.
* **Config pinning** — the sketch parameters are persisted on creation;
  reopening with a conflicting :class:`SketchConfig` raises instead of
  silently mixing incomparable signatures.
* **Concurrent readers** — file-backed stores run in WAL journal mode with
  one connection per process (:meth:`SketchStore._ensure_connection` is
  keyed by PID), so a serving daemon or a one-shot query reads candidate
  metadata while ``lake build`` or ``lake watch`` writes.  ``read_only=True`` opens an existing
  store without ever writing (safe for any number of reader processes).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.data.sqlite_store import _MAX_IN_VARS, PerProcessSqliteStore
from repro.data.table import Table
from repro.lake.profiles import (
    SketchConfig,
    TableSketch,
    sketch_table,
    table_content_hash,
)
from repro.telemetry import recorder as telemetry

__all__ = ["SketchStore", "store_generation"]

#: The generation of a store file: identity of the inode plus the monotone
#: store version inside it.
StoreGeneration = tuple[int, int, int]


def store_generation(path: Union[str, Path]) -> Optional[StoreGeneration]:
    """The ``(st_dev, st_ino, version)`` generation of the store at *path*.

    A long-lived reader (the serve daemon) polls this to detect writer
    cycles: a rebuilt store is a **new file** (build tools write then
    rename, changing the inode) and an in-place update bumps the monotone
    ``version`` row — either way the tuple changes.  The check opens a
    transient read-only connection so it never interferes with the store's
    own per-process connection cache, and returns ``None`` when *path* does
    not exist or is not (yet) a readable sketch/prepared store — e.g. a
    writer mid-rename.
    """
    resolved = Path(path)
    try:
        stat = resolved.stat()
    except OSError:
        return None
    try:
        connection = sqlite3.connect(f"file:{resolved}?mode=ro", uri=True)
    except sqlite3.Error:
        return None
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'version'"
        ).fetchone()
    except sqlite3.Error:
        return None
    finally:
        connection.close()
    return (stat.st_dev, stat.st_ino, int(row[0]) if row else 0)

#: Version 4 added the ``digest`` column; a version-3 file is refused,
#: never migrated.
_SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tables (
    name TEXT PRIMARY KEY,
    content_hash TEXT NOT NULL,
    num_rows INTEGER NOT NULL,
    num_columns INTEGER NOT NULL,
    source_path TEXT,
    updated_version INTEGER NOT NULL,
    sketch BLOB NOT NULL,
    digest BLOB NOT NULL
);
"""


class SketchStore(PerProcessSqliteStore):
    """A persistent, incrementally updatable collection of table sketches.

    Parameters
    ----------
    path:
        SQLite database path; ``":memory:"`` gives an ephemeral store.
    config:
        Sketch parameters.  For an existing store the persisted config wins;
        passing a different explicit config raises ``ValueError``.
    read_only:
        Open an *existing* store for reading only (SQLite ``mode=ro``) —
        what ``lake serve`` uses to resolve candidate metadata while
        another process may still be writing.
    """

    _STORE_KIND = "sketch store"
    _REQUIRED_TABLES = frozenset({"meta"})
    _SCHEMA_SCRIPT = _SCHEMA

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        config: Optional[SketchConfig] = None,
        read_only: bool = False,
    ) -> None:
        connection = self._init_connections(path, read_only)
        stored = self._read_meta("sketch_config")
        if stored is None:
            if read_only:
                self.close()
                raise ValueError(
                    f"cannot open {self.path!r} read-only: not an initialised "
                    "sketch store"
                )
            self.config = config or SketchConfig()
            with connection:
                self._write_meta("schema_version", str(_SCHEMA_VERSION))
                self._write_meta("sketch_config", json.dumps(self.config.as_dict()))
                self._write_meta("version", "0")
        else:
            schema_version = int(self._read_meta("schema_version") or 0)
            if schema_version != _SCHEMA_VERSION:
                self.close()
                raise ValueError(
                    f"store at {self.path!r} has schema version {schema_version}, "
                    f"this code reads version {_SCHEMA_VERSION}; a sketch store "
                    f"is derived data — delete {self.path} and re-run "
                    "`lake build` on its CSV directory"
                )
            persisted = SketchConfig.from_dict(json.loads(stored))
            if config is not None and config != persisted:
                self.close()
                raise ValueError(
                    f"store at {self.path!r} was built with {persisted}, "
                    f"cannot reopen with {config}"
                )
            self.config = persisted

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutating operation."""
        return int(self._read_meta("version") or 0)

    def _bump_version(self) -> int:
        version = self.version + 1
        self._write_meta("version", str(version))
        return version

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def add_table(
        self, table: Table, source_path: Optional[Union[str, Path]] = None
    ) -> bool:
        """Sketch *table* and persist it; returns whether re-sketching ran.

        If a sketch for ``table.name`` already exists with the same content
        hash the call is a cache hit and nothing is recomputed (though a
        changed *source_path* is still refreshed, so moved lakes keep
        resolving).  A changed hash (or a new name) re-sketches and replaces
        atomically.
        """
        content_hash = table_content_hash(table)
        if self._is_unchanged(table.name, content_hash, source_path):
            telemetry.count("sketch_store.unchanged")
            return False
        with telemetry.span("sketch_store.sketch", table=table.name):
            sketch = sketch_table(table, self.config, content_hash=content_hash)
        self._write_row(sketch, sketch.to_bytes(), source_path)
        telemetry.count("sketch_store.sketch_writes")
        return True

    def add_sketch(
        self, sketch: TableSketch, source_path: Optional[Union[str, Path]] = None
    ) -> bool:
        """Persist an already-computed sketch; returns whether it was written.

        The single-writer half of the parallel lake build: worker processes
        read and sketch CSVs, the owning process commits their results here.
        Cache-hit semantics match :meth:`add_table` (an identical stored
        content hash only refreshes a moved path).
        """
        if self._is_unchanged(sketch.name, sketch.content_hash, source_path):
            return False
        self._write_row(sketch, sketch.to_bytes(), source_path)
        return True

    def put_raw(self, name: str, content_hash: str, blob: bytes) -> None:
        """Persist one already-encoded sketch row under an explicit identity.

        The import half of snapshot distribution: a pull commits a fetched
        blob verbatim, so replica row bytes equal publisher row bytes.
        Raises ``ValueError`` — and writes nothing — when *blob* does not
        decode as a sketch or names a different table / content hash than
        the caller (the manifest entry) claims.
        """
        sketch = TableSketch.from_bytes(blob)
        if (sketch.name, sketch.content_hash) != (name, content_hash):
            raise ValueError(
                f"sketch bytes identify table {sketch.name!r} "
                f"({sketch.content_hash[:12]}), not {name!r} ({content_hash[:12]})"
            )
        self._write_row(sketch, blob, None)

    def _is_unchanged(
        self,
        name: str,
        content_hash: str,
        source_path: Optional[Union[str, Path]],
    ) -> bool:
        """True when *name* is stored with *content_hash* (refreshing the path)."""
        row = self._connection.execute(
            "SELECT content_hash FROM tables WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None or row[0] != content_hash:
            return False
        if source_path is not None:
            self.refresh_source_path(name, source_path)
        return True

    def refresh_source_path(self, name: str, source_path: Union[str, Path]) -> None:
        """Record a (possibly moved) source path for an existing table.

        A no-op for unknown names and unchanged paths; never *clears* a
        recorded path — callers that add in-memory tables (no source_path)
        must not null the recorded one.
        """
        resolved_path = str(source_path)
        row = self._connection.execute(
            "SELECT source_path FROM tables WHERE name = ?", (name,)
        ).fetchone()
        if row is None or row[0] == resolved_path:
            return
        with self._connection:
            self._connection.execute(
                "UPDATE tables SET source_path = ? WHERE name = ?",
                (resolved_path, name),
            )

    def _write_row(
        self,
        sketch: TableSketch,
        blob: bytes,
        source_path: Optional[Union[str, Path]],
    ) -> None:
        """Upsert the row of *sketch*; *blob* is its encoding, stored as is
        next to its SHA-256."""
        resolved_path = None if source_path is None else str(source_path)
        with self._connection:
            self._connection.execute(
                "INSERT INTO tables (name, content_hash, num_rows, num_columns, "
                "source_path, updated_version, sketch, digest) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET content_hash = excluded.content_hash, "
                "num_rows = excluded.num_rows, num_columns = excluded.num_columns, "
                "source_path = excluded.source_path, "
                "updated_version = excluded.updated_version, sketch = excluded.sketch, "
                "digest = excluded.digest",
                (
                    sketch.name,
                    sketch.content_hash,
                    sketch.num_rows,
                    sketch.num_columns,
                    resolved_path,
                    self.version + 1,
                    blob,
                    hashlib.sha256(blob).digest(),
                ),
            )
            self._bump_version()

    def remove_table(self, name: str) -> bool:
        """Drop the sketch of *name*; returns whether it existed.

        The version bump commits with the delete, which is how anything
        derived from the store — in this process or another — finds out.
        """
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM tables WHERE name = ?", (name,)
            )
            if cursor.rowcount == 0:
                return False
            self._bump_version()
        return True

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._connection.execute("SELECT COUNT(*) FROM tables").fetchone()[0]

    def __contains__(self, name: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM tables WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    @property
    def table_names(self) -> list[str]:
        """Registered table names in insertion (rowid) order."""
        rows = self._connection.execute(
            "SELECT name FROM tables ORDER BY rowid"
        ).fetchall()
        return [row[0] for row in rows]

    def updated_since(self, version: int) -> list[str]:
        """Names of tables (re)sketched after store version *version*.

        Removals are not reported — diff :attr:`table_names` for those.  This
        is the delta query behind incremental index refresh.
        """
        rows = self._connection.execute(
            "SELECT name FROM tables WHERE updated_version > ? ORDER BY rowid",
            (version,),
        ).fetchall()
        return [row[0] for row in rows]

    def table_meta(self, names: Sequence[str]) -> dict[str, tuple[str, Optional[str]]]:
        """Batch ``{name: (content hash, source path)}`` lookup.

        One ``IN (...)`` query per ~500 names instead of two point lookups
        per name — how a discovery shortlist resolves its candidates'
        build-time hashes and CSV paths in a single store round trip.
        Unknown names are absent from the result.  No sketch is read: the
        decoded ones live in the :class:`~repro.lake.index.LakeIndex`, and
        these hashes tell a reader whether they still describe the rows.
        """
        names = list(names)
        out: dict[str, tuple[str, Optional[str]]] = {}
        for start in range(0, len(names), _MAX_IN_VARS):
            chunk = names[start : start + _MAX_IN_VARS]
            placeholders = ", ".join("?" * len(chunk))
            rows = self._connection.execute(
                "SELECT name, content_hash, source_path FROM tables "
                f"WHERE name IN ({placeholders})",
                chunk,
            ).fetchall()
            for name, content_hash, source_path in rows:
                out[name] = (content_hash, source_path)
        telemetry.count("sketch_store.meta_lookups", len(names))
        telemetry.count("sketch_store.meta_hits", len(out))
        if len(out) < len(set(names)):
            telemetry.count("sketch_store.meta_misses", len(set(names)) - len(out))
        return out

    def source_path(self, name: str) -> Optional[str]:
        """The recorded source path of *name* (``None`` when not recorded)."""
        row = self._connection.execute(
            "SELECT source_path FROM tables WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise KeyError(f"store has no table {name!r}")
        return row[0]

    def stats(self) -> dict:
        """Store-level counters for ``lake stats``: row counts, version, config."""
        tables, total_rows, columns = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(num_rows), 0), "
            "COALESCE(SUM(num_columns), 0) FROM tables"
        ).fetchone()
        return {
            "tables": tables,
            "columns": columns,
            "total_table_rows": total_rows,
            "version": self.version,
            "config": self.config.as_dict(),
        }

    def get(self, name: str) -> Optional[TableSketch]:
        """Return the :class:`TableSketch` of *name* or ``None``.

        Raises ``ValueError`` naming the table when its stored sketch does
        not decode (row-level corruption that SQLite's own
        ``integrity_check`` cannot see) — the granularity ``lake verify``
        repairs at.
        """
        telemetry.count("sketch_store.sketch_reads")
        row = self._connection.execute(
            "SELECT sketch FROM tables WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        try:
            return TableSketch.from_bytes(row[0])
        except ValueError as exc:
            raise ValueError(f"sketch for table {name!r} is corrupt: {exc}") from exc

    def __iter__(self) -> Iterator[TableSketch]:
        """Iterate over all table sketches in insertion order.

        One bulk query (not N point lookups), so full-index rebuilds stay
        cheap on large lakes.
        """
        rows = self._connection.execute(
            "SELECT sketch FROM tables ORDER BY rowid"
        ).fetchall()
        for (blob,) in rows:
            yield TableSketch.from_bytes(blob)

    def get_raw(self, name: str, content_hash: str) -> bytes:
        """The stored sketch bytes of *name* at *content_hash*, undecoded —
        what ``lake publish`` writes as a blob (``KeyError`` when absent)."""
        row = self._connection.execute(
            "SELECT sketch FROM tables WHERE name = ? AND content_hash = ?",
            (name, content_hash),
        ).fetchone()
        if row is None:
            raise KeyError(f"store has no table {name!r} at {content_hash[:12]}")
        return row[0]

    def iter_raw(self) -> Iterator[tuple[str, str, bytes, bytes]]:
        """Iterate stored rows as raw ``(name, content hash, stored digest,
        sketch bytes)`` tuples in insertion order, nothing decoded — what
        ``lake verify`` re-hashes against the stored digests."""
        yield from self._connection.execute(
            "SELECT name, content_hash, digest, sketch FROM tables ORDER BY rowid"
        )

    def raw_keys(self) -> list[tuple[str, str, str, int]]:
        """``(name, content hash, hex digest, num_rows)`` of every stored
        table, in insertion order and with no sketch loaded.

        The fields of a :class:`~repro.artifacts.manifest.TableEntry`: what
        ``lake publish`` lists, snapshot pull reconciles against the
        published manifest, and ``lake verify`` checks prepared rows against.
        """
        rows = self._connection.execute(
            "SELECT name, content_hash, digest, num_rows FROM tables ORDER BY rowid"
        ).fetchall()
        return [
            (name, content_hash, digest.hex(), num_rows)
            for name, content_hash, digest, num_rows in rows
        ]
