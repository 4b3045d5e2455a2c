"""Versioned on-disk store of table sketches.

The store is the persistent half of the lake index: sketches are computed
once when a table is added and survive process restarts, so a discovery
query against a 10k-table lake never re-profiles the lake.  SQLite is used
as the storage engine (stdlib, single file, transactional); sketches are
stored as JSON payloads keyed by ``(table, column)``.

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
  keyed by PID), so parallel-rerank workers resolve candidate metadata
  concurrently with a writing parent.  ``read_only=True`` opens an existing
  store without ever writing (safe for any number of reader processes).
"""

from __future__ import annotations

import json
import logging
import sqlite3
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from repro.data.sqlite_store import _MAX_IN_VARS, PerProcessSqliteStore
from repro.data.table import Table
from repro.lake.profiles import (
    ColumnSketch,
    SketchConfig,
    TableSketch,
    sketch_table,
    table_content_hash,
)
from repro.telemetry import recorder as telemetry

logger = logging.getLogger(__name__)

__all__ = ["SketchStore", "TableMeta", "store_generation"]


class TableMeta(NamedTuple):
    """One table's batch-resolved metadata plus (optionally) its sketches.

    The return unit of :meth:`SketchStore.table_meta` with
    ``include_sketches=True``: identity metadata and the decoded
    :class:`~repro.lake.profiles.ColumnSketch` objects, all pulled in one
    ``IN (...)`` round trip per ~500 names — what the rerank cascade's
    stage 1 scores candidates with, without per-candidate point queries.
    """

    content_hash: str
    source_path: Optional[str]
    columns: tuple[ColumnSketch, ...]

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

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tables (
    name TEXT PRIMARY KEY,
    content_hash TEXT NOT NULL,
    num_rows INTEGER NOT NULL,
    source_path TEXT,
    updated_version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS columns (
    table_name TEXT NOT NULL,
    column_name TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (table_name, column_name),
    FOREIGN KEY (table_name) REFERENCES tables(name) ON DELETE CASCADE
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
        what parallel-rerank workers use to resolve candidate metadata
        while the parent may still be writing.
    """

    _STORE_KIND = "sketch store"
    _REQUIRED_TABLES = frozenset({"meta"})
    _SCHEMA_SCRIPT = _SCHEMA
    _FOREIGN_KEYS = True

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        config: Optional[SketchConfig] = None,
        read_only: bool = False,
    ) -> None:
        #: Callbacks fired with the table name after a successful
        #: :meth:`remove_table` commit — how derived in-memory structures
        #: (the engine's LSH index) invalidate a deleted table immediately
        #: instead of waiting for their next version probe.
        self._removal_listeners: list[Callable[[str], None]] = []
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
                    f"this code reads version {_SCHEMA_VERSION}"
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
        self._write_sketch(sketch, source_path)
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
        self._write_sketch(sketch, source_path)
        return True

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

    def _write_sketch(
        self, sketch: TableSketch, source_path: Optional[Union[str, Path]]
    ) -> None:
        resolved_path = None if source_path is None else str(source_path)
        with self._connection:
            self._connection.execute(
                "DELETE FROM columns WHERE table_name = ?", (sketch.name,)
            )
            self._connection.execute(
                "INSERT INTO tables (name, content_hash, num_rows, source_path, updated_version) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET content_hash = excluded.content_hash, "
                "num_rows = excluded.num_rows, source_path = excluded.source_path, "
                "updated_version = excluded.updated_version",
                (
                    sketch.name,
                    sketch.content_hash,
                    sketch.num_rows,
                    resolved_path,
                    self.version + 1,
                ),
            )
            self._connection.executemany(
                "INSERT INTO columns (table_name, column_name, payload) VALUES (?, ?, ?)",
                [
                    (sketch.name, column.column_name, json.dumps(column.to_dict()))
                    for column in sketch.columns
                ],
            )
            self._bump_version()

    def remove_table(self, name: str) -> bool:
        """Drop the sketch of *name*; returns whether it existed.

        Registered removal listeners (see :meth:`add_removal_listener`) are
        notified after the delete commits, so anything derived from the
        store can retire the table before its next read.
        """
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM tables WHERE name = ?", (name,)
            )
            if cursor.rowcount == 0:
                return False
            self._bump_version()
        for listener in list(self._removal_listeners):
            listener(name)
        return True

    def add_removal_listener(self, listener: Callable[[str], None]) -> None:
        """Call *listener(name)* after every committed :meth:`remove_table`."""
        self._removal_listeners.append(listener)

    def remove_removal_listener(self, listener: Callable[[str], None]) -> None:
        """Unregister a listener added with :meth:`add_removal_listener`."""
        try:
            self._removal_listeners.remove(listener)
        except ValueError:
            pass

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

    def content_hash(self, name: str) -> Optional[str]:
        """The stored content hash of *name* (``None`` for unknown tables).

        One indexed lookup — the warm discovery path uses it to key into the
        prepared-candidate store without loading (or re-hashing) the table.
        """
        row = self._connection.execute(
            "SELECT content_hash FROM tables WHERE name = ?", (name,)
        ).fetchone()
        return row[0] if row else None

    def table_meta(
        self, names: Sequence[str], include_sketches: bool = False
    ) -> dict[str, Union[tuple[str, Optional[str]], TableMeta]]:
        """Batch ``{name: (content hash, source path)}`` lookup.

        One ``IN (...)`` query per ~500 names instead of two point lookups
        per name — how a discovery shortlist (or a rerank worker's name
        chunk) resolves its candidates' build-time hashes and CSV paths in
        a single store round trip.  Unknown names are absent from the
        result.

        With ``include_sketches=True`` each entry is a :class:`TableMeta`
        whose ``columns`` carry the decoded column sketches, joined in via
        one extra batched ``IN (...)`` query over the columns table — the
        rerank cascade's stage-1 signal source (histograms + MinHash for a
        whole shortlist, no per-candidate round trips).  Column payloads
        that fail to decode leave that table's ``columns`` empty rather
        than failing the batch (the cascade then scores it exactly).
        """
        names = list(names)
        out: dict[str, Union[tuple[str, Optional[str]], TableMeta]] = {}
        sketches: dict[str, list[ColumnSketch]] = {}
        corrupt: set[str] = set()
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
            if include_sketches:
                column_rows = self._connection.execute(
                    "SELECT table_name, payload FROM columns "
                    f"WHERE table_name IN ({placeholders}) ORDER BY rowid",
                    chunk,
                ).fetchall()
                for table_name, payload in column_rows:
                    if table_name in corrupt:
                        continue
                    try:
                        sketch = ColumnSketch.from_dict(json.loads(payload))
                    except (ValueError, KeyError, TypeError):
                        corrupt.add(table_name)
                        sketches.pop(table_name, None)
                        logger.warning(
                            "column sketch of table %r does not decode; "
                            "stage-1 signals unavailable for it",
                            table_name,
                        )
                        continue
                    sketches.setdefault(table_name, []).append(sketch)
        if include_sketches:
            out = {
                name: TableMeta(
                    content_hash=entry[0],
                    source_path=entry[1],
                    columns=tuple(sketches.get(name, ())),
                )
                for name, entry in out.items()
            }
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
        tables, total_rows = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(num_rows), 0) FROM tables"
        ).fetchone()
        columns = self._connection.execute("SELECT COUNT(*) FROM columns").fetchone()[0]
        return {
            "tables": tables,
            "columns": columns,
            "total_table_rows": total_rows,
            "version": self.version,
            "config": self.config.as_dict(),
        }

    def get(self, name: str) -> Optional[TableSketch]:
        """Return the :class:`TableSketch` of *name* or ``None``.

        Raises ``ValueError`` naming the table when its stored column
        payloads do not decode (row-level corruption that SQLite's own
        ``integrity_check`` cannot see) — the granularity ``lake verify``
        repairs at.
        """
        telemetry.count("sketch_store.sketch_reads")
        row = self._connection.execute(
            "SELECT content_hash, num_rows FROM tables WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        payloads = self._connection.execute(
            "SELECT payload FROM columns WHERE table_name = ? ORDER BY rowid",
            (name,),
        ).fetchall()
        try:
            columns = tuple(ColumnSketch.from_dict(json.loads(p[0])) for p in payloads)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"sketch for table {name!r} is corrupt: column payload does "
                f"not decode ({exc})"
            ) from exc
        return TableSketch(
            name=name, content_hash=row[0], num_rows=row[1], columns=columns
        )

    def __iter__(self) -> Iterator[TableSketch]:
        """Iterate over all table sketches in insertion order.

        Reads the whole store in two bulk queries (not 2N point lookups), so
        full-index rebuilds stay cheap on large lakes.
        """
        metadata = self._connection.execute(
            "SELECT name, content_hash, num_rows FROM tables ORDER BY rowid"
        ).fetchall()
        payloads = self._connection.execute(
            "SELECT c.table_name, c.payload FROM columns c "
            "JOIN tables t ON t.name = c.table_name ORDER BY t.rowid, c.rowid"
        ).fetchall()
        columns_of: dict[str, list[ColumnSketch]] = {}
        for table_name, payload in payloads:
            columns_of.setdefault(table_name, []).append(
                ColumnSketch.from_dict(json.loads(payload))
            )
        for name, content_hash, num_rows in metadata:
            yield TableSketch(
                name=name,
                content_hash=content_hash,
                num_rows=num_rows,
                columns=tuple(columns_of.get(name, ())),
            )

