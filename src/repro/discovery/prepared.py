"""Prepared-table reuse: an in-process LRU cache and a persistent store.

:meth:`BaseMatcher.prepare <repro.matchers.base.BaseMatcher.prepare>` is the
per-table half of matching — tokenised names, value sets, sketches, schema
trees.  Within one discovery query the engines already prepare the query
exactly once; the two classes here extend the amortisation further:

* :class:`PreparedTableCache` — an in-memory LRU of at most 128 tables.
  A query table that a dashboard re-runs hits it instead of re-preparing.
* :class:`PreparedStore` — the lake's prepared rows persisted to SQLite, so
  a *warm* lake query reranks without preparing any candidate at all,
  across process restarts.  :class:`~repro.lake.engine.LakeDiscoveryEngine`
  keeps one next to its sketch store and serves shortlisted candidates
  straight from it.  The store is derived data, not a cache: it holds
  exactly the rows its writers put there (``lake prepare``, a cold
  candidate's write-through, ``lake pull``) and never drops one on its own;
  a row leaves only through :meth:`PreparedStore.prune_stale`, a pull's
  retire step or ``lake verify --repair``.

Entries are keyed by ``(matcher fingerprint, table name, content hash)``:

* the **matcher fingerprint** (:meth:`BaseMatcher.fingerprint`) ties a
  payload to the matcher class and every configuration parameter its
  ``prepare`` consumes — changing a prepare-relevant parameter yields a
  different fingerprint and a cache miss (parameters that only shape the
  pairwise stage are excluded via
  :meth:`BaseMatcher.prepare_parameters`, so sweeping them reuses entries);
* the **table name** keeps same-content tables distinct — lakes routinely
  hold identical copies under different names, and match results carry the
  table name in their column refs;
* the **content hash** (:func:`repro.data.fingerprint.table_content_hash`)
  ties the entry to the table's full schema + cell content, so mutated
  tables can never serve stale artifacts.

Persistence format: a row is a :class:`PreparedTable` written by the one
codec in :mod:`repro.discovery.prepared_codec` — the table's schema header
and the matcher payload as canonical JSON plus typed little-endian arrays,
never the table's cells and never a pickle, so reading a row (a pulled one
included) builds data and runs no code.  Next to its bytes a row keeps
their raw SHA-256 (``digest``, computed in :meth:`PreparedStore.put_raw`,
the one place a row is written), which ``lake publish`` names the row's
blob by without reading it.  Every row records the payload
format version; opening a store whose schema version differs from this
code's raises (delete the file and re-run ``lake prepare``), while rows
with a *different payload format* (or rows the
codec refuses) are treated as misses and replaced — the versioning policy
is "re-prepare on any format change", never "best-effort decode".  Bump
``PREPARED_PAYLOAD_FORMAT`` whenever the codec's layout, ``PreparedTable``
or any matcher payload changes shape.

Concurrency: file-backed stores run in SQLite WAL journal mode, so any
number of processes can *read* payloads while one writes — a ``lake
serve`` daemon, ``lake watch`` and one-shot ``lake query`` runs each hold
their own connection (:meth:`PreparedStore._ensure_connection` is keyed by
PID).  Occasional concurrent write-through from several of them serializes
on SQLite's write lock (a generous busy timeout is set on every
connection).  WAL requires a filesystem with working POSIX
locks and shared memory — keep stores on a local disk, not NFS.
"""

from __future__ import annotations

import hashlib
import logging
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.data.fingerprint import table_content_hash
from repro.data.sqlite_store import _MAX_IN_VARS, PerProcessSqliteStore
from repro.data.table import Table
from repro.discovery import prepared_codec
from repro.matchers.base import BaseMatcher, PreparedTable
from repro.telemetry import recorder as telemetry

logger = logging.getLogger(__name__)

__all__ = [
    "PreparedTableCache",
    "PreparedStore",
    "PREPARED_PAYLOAD_FORMAT",
    "fingerprint_class",
]

#: Version of the row layout (:mod:`repro.discovery.prepared_codec`).  Readers
#: only decode rows carrying exactly this format; anything else is
#: re-prepared and overwritten.
PREPARED_PAYLOAD_FORMAT = 2

#: Version 2 dropped the LRU recency column, its index and the clock meta
#: key; version 3 added the ``digest`` column.  An older file is refused,
#: never migrated.
_SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS prepared (
    matcher_fingerprint TEXT NOT NULL,
    table_name TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    payload_format INTEGER NOT NULL,
    payload BLOB NOT NULL,
    digest BLOB NOT NULL,
    PRIMARY KEY (matcher_fingerprint, table_name, content_hash)
);
"""


def fingerprint_class(fingerprint: str) -> str:
    """The matcher class a fingerprint names: everything before its ``(``.

    Every :meth:`~repro.matchers.base.BaseMatcher.fingerprint` opens with
    ``module.Class(``; the parameters after it are too long for a label.
    """
    return fingerprint.partition("(")[0]


#: Entries a :class:`PreparedTableCache` keeps.  Payload sizes vary wildly
#: across matchers, so the bound is on entry count, not bytes.
CACHE_MAX_ENTRIES = 128


@dataclass
class PreparedTableCache:
    """LRU cache of :class:`PreparedTable` bundles.

    Keeps the ``CACHE_MAX_ENTRIES`` most recently used tables; the least
    recently used entry is evicted first.
    """

    _entries: "OrderedDict[tuple[str, str, str], PreparedTable]" = field(
        default_factory=OrderedDict, repr=False, init=False
    )

    def prepare(self, matcher: BaseMatcher, table: Table) -> PreparedTable:
        """Return ``matcher.prepare(table)``, served from cache when possible."""
        key = (matcher.fingerprint(), table.name, table_content_hash(table))
        cached = self._entries.get(key)
        if cached is not None:
            telemetry.count("prepared_cache.hits")
            self._entries.move_to_end(key)
            return cached
        telemetry.count("prepared_cache.misses")
        prepared = matcher.prepare(table)
        self._entries[key] = prepared
        while len(self._entries) > CACHE_MAX_ENTRIES:
            self._entries.popitem(last=False)
            telemetry.count("prepared_cache.evictions")
        return prepared


class PreparedStore(PerProcessSqliteStore):
    """The lake's persistent prepared tables (SQLite-backed).

    The on-disk half of prepared-table reuse: payloads survive process
    restarts, so a warm :meth:`LakeDiscoveryEngine.query
    <repro.lake.engine.LakeDiscoveryEngine.query>` reranks its shortlist
    without preparing — or even loading — any candidate table.  Unbounded
    on purpose: one row per (lake table, matcher) that was prepared, and
    no row is ever evicted.

    Parameters
    ----------
    path:
        SQLite database path; ``":memory:"`` gives an ephemeral store.
        Conventionally ``<sketch store path>.prepared``, next to the lake's
        sketch store.
    read_only:
        Open an *existing* store for reading only (SQLite ``mode=ro``).
        Reads work as usual but nothing is ever written.  Safe for any
        number of concurrent reader processes over a WAL store.
    """

    _STORE_KIND = "prepared store"
    _REQUIRED_TABLES = frozenset({"meta", "prepared"})
    _SCHEMA_SCRIPT = _SCHEMA

    def __init__(
        self, path: Union[str, Path] = ":memory:", read_only: bool = False
    ) -> None:
        connection = self._init_connections(path, read_only)
        stored = self._read_meta("schema_version")
        if stored is None:
            if self.read_only:
                self.close()
                raise ValueError(
                    f"cannot open {self.path!r} read-only: not an initialised "
                    "prepared store"
                )
            with connection:
                self._write_meta("schema_version", str(_SCHEMA_VERSION))
                self._write_meta("payload_format", str(PREPARED_PAYLOAD_FORMAT))
        elif int(stored) != _SCHEMA_VERSION:
            self.close()
            raise ValueError(
                f"prepared store at {self.path!r} has schema version {stored}, "
                f"this code reads version {_SCHEMA_VERSION}; a prepared store is "
                f"derived data — delete {self.path} and re-run "
                "`lake prepare <matcher>`"
            )

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def _decode(
        self, payload_format: int, blob: bytes, fingerprint: str, table_name: str
    ) -> Optional[PreparedTable]:
        """Decode one stored row, or ``None`` when it must not be trusted:
        a foreign format (never decoded), bytes the codec refuses, or a row
        naming another fingerprint or table than its key."""
        if payload_format != PREPARED_PAYLOAD_FORMAT:
            return None
        try:
            decoded = prepared_codec.decode(blob)
        except ValueError:
            return None
        if decoded.fingerprint == fingerprint and decoded.name == table_name:
            return decoded
        return None

    def _discard(self, fingerprint: str, table_name: str, content_hash: str) -> None:
        """Delete one untrustworthy row (no-op on read-only stores)."""
        logger.warning(
            "discarding corrupt or foreign prepared row (table=%r, matcher=%s)",
            table_name,
            fingerprint_class(fingerprint),
        )
        telemetry.count("prepared_store.discarded_rows")
        if self.read_only:
            return
        with self._connection:
            self._connection.execute(
                "DELETE FROM prepared WHERE matcher_fingerprint = ? "
                "AND table_name = ? AND content_hash = ?",
                (fingerprint, table_name, content_hash),
            )

    def get(
        self, fingerprint: str, table_name: str, content_hash: str
    ) -> Optional[PreparedTable]:
        """Load the stored :class:`PreparedTable` for a key, or ``None``.

        Rows carrying a foreign payload format, rows the codec refuses, and
        rows whose decoded fingerprint or name does not match are discarded
        (and deleted) rather than trusted — the caller re-prepares.  A
        successful load counts as a ``prepared_store.hits``; probes that
        find nothing are not counted (the eventual :meth:`prepare` records
        the miss exactly once).  The result carries the table's header, not
        its cells.
        """
        row = self._connection.execute(
            "SELECT payload_format, payload FROM prepared "
            "WHERE matcher_fingerprint = ? AND table_name = ? AND content_hash = ?",
            (fingerprint, table_name, content_hash),
        ).fetchone()
        if row is None:
            return None
        prepared = self._decode(row[0], row[1], fingerprint, table_name)
        if prepared is None:
            self._discard(fingerprint, table_name, content_hash)
            return None
        telemetry.count("prepared_store.hits")
        telemetry.count("prepared_store.bytes_read", len(row[1]))
        return prepared

    def get_many(
        self, fingerprint: str, keys: Sequence[tuple[str, str]]
    ) -> dict[str, PreparedTable]:
        """Batch-load prepared tables: one ``IN (...)`` query per shortlist.

        Parameters
        ----------
        fingerprint:
            The matcher fingerprint all keys share.
        keys:
            ``(table name, content hash)`` pairs, e.g. a discovery
            shortlist against the hashes recorded at lake-build time.

        Returns the found entries as ``{table name: PreparedTable}`` (each
        carrying its header, no cells); missing names are simply absent (the
        caller falls back to CSV-prepare for those).  Validation and hit
        counting match :meth:`get` row for row — only the number of round
        trips changes (one per ~500 names instead of one per name).
        """
        wanted = dict(keys)
        names = list(wanted)
        found: dict[str, PreparedTable] = {}
        for start in range(0, len(names), _MAX_IN_VARS):
            chunk = names[start : start + _MAX_IN_VARS]
            placeholders = ", ".join("?" * len(chunk))
            rows = self._connection.execute(
                "SELECT table_name, content_hash, payload_format, payload "
                f"FROM prepared WHERE matcher_fingerprint = ? "
                f"AND table_name IN ({placeholders})",
                (fingerprint, *chunk),
            ).fetchall()
            for table_name, content_hash, payload_format, blob in rows:
                if content_hash != wanted.get(table_name):
                    continue  # a different build generation; not ours to judge
                prepared = self._decode(payload_format, blob, fingerprint, table_name)
                if prepared is None:
                    self._discard(fingerprint, table_name, content_hash)
                    continue
                found[table_name] = prepared
                telemetry.count("prepared_store.hits")
                telemetry.count("prepared_store.bytes_read", len(blob))
        return found

    def contains_many(
        self, fingerprint: str, keys: Sequence[tuple[str, str]]
    ) -> set[str]:
        """Batch existence probe: the subset of key names present in the store.

        Only rows carrying the current payload format count (a row
        :meth:`get` would discard is not present), nothing is decoded, and
        the probe is one ``IN (...)`` query per ~500 names.
        """
        wanted = dict(keys)
        names = list(wanted)
        present: set[str] = set()
        for start in range(0, len(names), _MAX_IN_VARS):
            chunk = names[start : start + _MAX_IN_VARS]
            placeholders = ", ".join("?" * len(chunk))
            rows = self._connection.execute(
                "SELECT table_name, content_hash FROM prepared "
                f"WHERE matcher_fingerprint = ? AND payload_format = ? "
                f"AND table_name IN ({placeholders})",
                (fingerprint, PREPARED_PAYLOAD_FORMAT, *chunk),
            ).fetchall()
            present.update(
                name for name, content_hash in rows if content_hash == wanted.get(name)
            )
        return present

    def put(self, prepared: PreparedTable, content_hash: str) -> None:
        """Persist one prepared table under *content_hash*, the hash of the
        table it was prepared from (replacing any entry under its key)."""
        blob = prepared_codec.encode(prepared)
        self.put_raw(
            prepared.fingerprint,
            prepared.name,
            content_hash,
            PREPARED_PAYLOAD_FORMAT,
            blob,
        )

    def put_raw(
        self,
        fingerprint: str,
        table_name: str,
        content_hash: str,
        payload_format: int,
        blob: bytes,
    ) -> None:
        """Persist one already-encoded payload under an explicit key, next
        to its SHA-256.

        The import half of snapshot distribution: a puller ships payload
        blobs verbatim from a published artifact into a replica store
        without decoding them (validation happens lazily on first
        :meth:`get`, exactly as for any other stored row, and decoding
        builds data only).
        """
        with self._connection:
            self._connection.execute(
                "INSERT INTO prepared (matcher_fingerprint, table_name, content_hash, "
                "payload_format, payload, digest) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(matcher_fingerprint, table_name, content_hash) DO UPDATE "
                "SET payload_format = excluded.payload_format, "
                "payload = excluded.payload, digest = excluded.digest",
                (
                    fingerprint,
                    table_name,
                    content_hash,
                    payload_format,
                    blob,
                    hashlib.sha256(blob).digest(),
                ),
            )
        telemetry.count("prepared_store.writes")
        telemetry.count("prepared_store.bytes_written", len(blob))

    def remove_raw(self, fingerprint: str, table_name: str, content_hash: str) -> bool:
        """Delete one stored payload by key; returns whether it existed.

        The removal half of snapshot sync — a pulled snapshot that no
        longer carries a payload retires the local row.
        """
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM prepared WHERE matcher_fingerprint = ? "
                "AND table_name = ? AND content_hash = ?",
                (fingerprint, table_name, content_hash),
            )
        return cursor.rowcount > 0

    def get_raw(self, fingerprint: str, table_name: str, content_hash: str) -> bytes:
        """The stored bytes of one row, undecoded — what ``lake publish``
        writes as a blob (``KeyError`` when absent)."""
        row = self._connection.execute(
            "SELECT payload FROM prepared "
            "WHERE matcher_fingerprint = ? AND table_name = ? AND content_hash = ?",
            (fingerprint, table_name, content_hash),
        ).fetchone()
        if row is None:
            raise KeyError(f"no prepared row for table {table_name!r}")
        return row[0]

    def iter_raw(self) -> Iterator[tuple[str, str, str, int, bytes, bytes]]:
        """Iterate stored rows as raw ``(fingerprint, name, hash, format,
        stored digest, blob)`` tuples, nothing decoded — what ``lake
        verify`` decodes and re-hashes.

        Only rows carrying the *current* payload format are yielded, as by
        :meth:`raw_keys`: a row :meth:`get` would refuse to decode is never
        published.
        """
        for row in self._connection.execute(
            "SELECT matcher_fingerprint, table_name, content_hash, "
            "payload_format, digest, payload FROM prepared WHERE payload_format = ? "
            "ORDER BY rowid",
            (PREPARED_PAYLOAD_FORMAT,),
        ):
            yield (row[0], row[1], row[2], int(row[3]), row[4], row[5])

    def raw_keys(self) -> list[tuple[str, str, str, int, str]]:
        """``(fingerprint, name, hash, format, hex digest)`` of every
        current-format row, no payloads loaded.

        The fields of a :class:`~repro.artifacts.manifest.PreparedEntry`:
        what ``lake publish`` lists and snapshot pull reconciles against the
        published manifest, in one metadata-only query even for very large
        stores.
        """
        rows = self._connection.execute(
            "SELECT matcher_fingerprint, table_name, content_hash, payload_format, "
            "digest FROM prepared WHERE payload_format = ? ORDER BY rowid",
            (PREPARED_PAYLOAD_FORMAT,),
        ).fetchall()
        return [(r[0], r[1], r[2], int(r[3]), r[4].hex()) for r in rows]

    def undecodable_keys(self) -> list[tuple[str, str, str]]:
        """``(fingerprint, name, hash)`` of every current-format row that
        :meth:`get` would discard: bytes the codec refuses, or a decoded
        fingerprint or table name other than the row's key.

        What ``lake verify`` checks, since a pulled row is only ever
        validated when a query first reads it.  Reads every payload.
        """
        return [
            (fingerprint, name, content_hash)
            for fingerprint, name, content_hash, payload_format, _, blob in self.iter_raw()
            if self._decode(payload_format, blob, fingerprint, name) is None
        ]

    def prune_stale(self, fingerprint: str, current: dict[str, str]) -> int:
        """Drop this matcher's rows whose table is gone or whose stored
        content hash disagrees with *current* ``{table name: hash}``.

        Called by :func:`~repro.lake.build.prepare_lake` with the sketch
        store's build-time hashes: payloads keyed to superseded content can
        never be served again (warm lookups key on the build hash), so they
        are dead weight — and on replicas they would survive table
        deletions forever.  Returns the number of rows deleted.
        """
        rows = self._connection.execute(
            "SELECT table_name, content_hash FROM prepared "
            "WHERE matcher_fingerprint = ?",
            (fingerprint,),
        ).fetchall()
        victims = [
            (table_name, content_hash)
            for table_name, content_hash in rows
            if current.get(table_name) != content_hash
        ]
        if not victims:
            return 0
        with self._connection:
            for table_name, content_hash in victims:
                self._connection.execute(
                    "DELETE FROM prepared WHERE matcher_fingerprint = ? "
                    "AND table_name = ? AND content_hash = ?",
                    (fingerprint, table_name, content_hash),
                )
        telemetry.count("prepared_store.stale_pruned", len(victims))
        return len(victims)

    @property
    def total_bytes(self) -> int:
        """Summed size of all stored payload blobs."""
        return self._connection.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM prepared"
        ).fetchone()[0]

    def prepare(self, matcher: BaseMatcher, table: Table) -> PreparedTable:
        """Return ``matcher.prepare(table)``, served from disk when possible.

        The write-through half of the lake's warm path: a miss computes the
        payload and persists it, so one cold rerank warms the store for
        every later query.  A payload the codec refuses (an Ensemble's
        schema-based member) is returned unstored.
        """
        content_hash = table_content_hash(table)
        prepared = self.get(matcher.fingerprint(), table.name, content_hash)
        if prepared is not None:
            return replace(prepared, table=table)
        telemetry.count("prepared_store.misses")
        with telemetry.span("prepared_store.prepare", table=table.name):
            prepared = matcher.prepare(table)
        try:
            self.put(prepared, content_hash=content_hash)
        except ValueError as exc:
            logger.debug("prepared row of %r not stored: %s", table.name, exc)
        return prepared

    # ------------------------------------------------------------------ #
    # introspection / maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._connection.execute("SELECT COUNT(*) FROM prepared").fetchone()[0]

    def stats(self) -> dict:
        """Store-level counters for ``lake stats``: rows, bytes, per matcher.

        ``per_fingerprint`` maps each stored matcher fingerprint to its row
        count and summed payload bytes — the shape of the store on disk.
        """
        rows = self._connection.execute(
            "SELECT matcher_fingerprint, COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
            "FROM prepared GROUP BY matcher_fingerprint ORDER BY matcher_fingerprint"
        ).fetchall()
        return {
            "rows": len(self),
            "total_payload_bytes": self.total_bytes,
            "per_fingerprint": {
                fingerprint: {"rows": count, "payload_bytes": nbytes}
                for fingerprint, count, nbytes in rows
            },
        }
