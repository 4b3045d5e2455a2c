"""Shared per-process SQLite connection machinery for the on-disk stores.

:class:`~repro.lake.store.SketchStore` and
:class:`~repro.discovery.prepared.PreparedStore` are both single-file
SQLite stores that several processes share — a ``lake serve`` daemon, a
``lake watch`` loop, one-shot CLI queries, the build pool's writer.  The
concurrency rules are identical and subtle, so they live exactly once,
here:

* **WAL journal mode** (file-backed stores only) — readers never block the
  writer and vice versa; requires a local filesystem with working POSIX
  locks and shared memory, not NFS.
* **One connection per process** — :meth:`_ensure_connection` is keyed by
  PID, so a store object that crosses a ``fork()`` lazily opens its own
  connection instead of sharing the parent's (sharing SQLite connections
  across processes is undefined behaviour).  In-memory stores cannot cross
  processes and refuse with ``RuntimeError``.
* **Read-only opens** (``mode=ro`` URI) for pure reader processes, which
  skip schema creation and must find an initialised store.
* **Busy timeout** on every connection, so occasional concurrent writers
  serialize on SQLite's write lock instead of failing.
* **Closed means closed** — :meth:`close` marks the store unusable in this
  process (later calls raise ``sqlite3.ProgrammingError``) rather than
  letting the per-PID lookup silently reopen a leaked connection.

Subclasses declare what their store looks like (``_STORE_KIND``,
``_REQUIRED_TABLES``, ``_SCHEMA_SCRIPT``) and call
:meth:`_init_connections` from ``__init__``.  Every store has a ``meta``
key/value table (it is in ``_REQUIRED_TABLES``), read and written through
:meth:`_read_meta` / :meth:`_write_meta`, and is a context manager that
closes itself.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Optional, TypeVar, Union

__all__ = ["PerProcessSqliteStore"]

_StoreT = TypeVar("_StoreT", bound="PerProcessSqliteStore")

#: Milliseconds a connection waits on SQLite's write lock before giving up.
#: Generous on purpose: concurrent writers (e.g. a daemon writing through
#: misses while ``lake watch`` re-prepares) serialize on one lock under WAL.
_BUSY_TIMEOUT_MS = 10_000

#: Names per ``IN (...)`` clause in batched lookups — comfortably below
#: SQLite's historical 999-variable limit.
_MAX_IN_VARS = 500


class PerProcessSqliteStore:
    """Mixin holding the per-PID WAL connection lifecycle of a SQLite store."""

    #: Human-readable store kind used in error messages ("sketch store"...).
    _STORE_KIND = "store"
    #: Tables that must be present for an existing SQLite file to be
    #: adopted as this kind of store (refusing somebody else's database).
    _REQUIRED_TABLES: frozenset = frozenset({"meta"})
    #: ``executescript`` DDL creating the store's tables (writable opens).
    _SCHEMA_SCRIPT = ""

    def _init_connections(
        self, path: Union[str, Path], read_only: bool
    ) -> sqlite3.Connection:
        """Open the founding connection; called once from subclass __init__."""
        self.path = str(path)
        self.read_only = read_only
        self._connections: dict[int, sqlite3.Connection] = {}
        self._closed = False
        connection = self._open_connection()
        self._connections[os.getpid()] = connection
        return connection

    def _open_connection(self) -> sqlite3.Connection:
        """Open, pragma-configure and validate one connection to the store."""
        in_memory = self.path == ":memory:"
        connection = None
        try:
            if self.read_only:
                connection = sqlite3.connect(f"file:{self.path}?mode=ro", uri=True)
            else:
                connection = sqlite3.connect(self.path)
            connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
            if not in_memory and not self.read_only:
                # WAL lets N reader processes (daemons, one-shot queries)
                # pull rows while a writer commits; NORMAL sync is the standard
                # WAL pairing (the WAL survives process crashes, only an OS
                # crash can lose the tail).  Converting the journal mode is
                # the writer's job: on a read-only connection the pragma
                # would fail against a legacy (pre-WAL) store file, and
                # *reading* a WAL database needs no pragma at all.
                connection.execute("PRAGMA journal_mode = WAL")
                connection.execute("PRAGMA synchronous = NORMAL")
            existing = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if existing and not self._REQUIRED_TABLES <= existing:
                # A valid SQLite database, but somebody else's: refuse to
                # adopt it rather than writing our tables into it.
                connection.close()
                raise ValueError(
                    f"{self.path!r} is a SQLite database but not a {self._STORE_KIND}"
                )
            if not self.read_only:
                connection.executescript(self._SCHEMA_SCRIPT)
        except sqlite3.Error as exc:
            if connection is not None:
                connection.close()
            raise ValueError(
                f"cannot open {self.path!r} as a {self._STORE_KIND} (SQLite) "
                f"file: {exc}"
            ) from exc
        return connection

    def _ensure_connection(self) -> sqlite3.Connection:
        """The calling process's connection, opened on first use per PID."""
        if self._closed:
            raise sqlite3.ProgrammingError(
                f"cannot operate on a closed {self._STORE_KIND}"
            )
        pid = os.getpid()
        connection = self._connections.get(pid)
        if connection is None:
            if self.path == ":memory:":
                raise RuntimeError(
                    f"an in-memory {self._STORE_KIND} cannot be shared across "
                    "processes; use a file-backed store"
                )
            connection = self._open_connection()
            self._connections[pid] = connection
        return connection

    @property
    def _connection(self) -> sqlite3.Connection:
        return self._ensure_connection()

    def _read_meta(self, key: str) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def _write_meta(self, key: str, value: str) -> None:
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def integrity_check(self) -> list[str]:
        """Run ``PRAGMA integrity_check``; ``[]`` means the file is sound.

        Returns SQLite's complaint strings on corruption (page damage,
        broken indexes).  An empty list is the all-clear — the single
        row ``ok`` SQLite reports for a healthy database is elided.
        """
        try:
            rows = self._connection.execute("PRAGMA integrity_check").fetchall()
        except sqlite3.Error as exc:
            # A database too damaged to even run the pragma is its own
            # finding, not an exception the caller has to special-case.
            return [f"integrity_check failed to run: {exc}"]
        findings = [str(row[0]) for row in rows]
        if findings == ["ok"]:
            return []
        return findings

    def close(self) -> None:
        """Close this process's connection and mark the store unusable.

        Later calls raise ``sqlite3.ProgrammingError``.  Connections opened
        by forked processes belong to — and are closed by — those processes
        (the closed flag is per process too: each side of a fork has its own
        copy of it).
        """
        pid = os.getpid()
        connection = self._connections.pop(pid, None)
        if connection is not None:
            connection.close()
        self._closed = True

    def __enter__(self: _StoreT) -> _StoreT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
