"""Concurrent multi-process access to the WAL-mode stores.

The contract under test (tentpole of the parallel warm path): any number of
reader processes may pull sketches and prepared payloads while the parent
keeps writing — WAL journal mode plus one SQLite connection per process
(``_ensure_connection()`` keyed by PID).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.data.csv_io import write_csv
from repro.data.fingerprint import table_content_hash
from repro.data.table import Column, Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


def _make_lake(tmp_path, num_tables=4, rows=20):
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(num_tables):
        table = tpcdi_prospect_table(num_rows=rows, seed=70 + i).rename(f"table_{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    return sorted(lake_dir.glob("*.csv"))


def _reader_loop(sketch_path, prepared_path, names, fingerprint, iterations, queue):
    """Worker body: hammer both stores read-only while the parent writes."""
    try:
        sketch_store = SketchStore(sketch_path, read_only=True)
        prepared_store = PreparedStore(prepared_path, read_only=True)
        served = 0
        for _ in range(iterations):
            meta = sketch_store.table_meta(names)
            for name in names:
                sketch = sketch_store.get(name)
                assert sketch is None or sketch.name == name
            keys = [(n, meta[n][0]) for n in names if n in meta]
            served += len(prepared_store.get_many(fingerprint, keys))
        sketch_store.close()
        prepared_store.close()
        queue.put(("ok", served))
    except Exception as exc:  # pragma: no cover - failure reporting path
        queue.put(("error", repr(exc)))


class TestWALConcurrentAccess:
    def test_file_backed_stores_run_in_wal_mode(self, tmp_path):
        with SketchStore(tmp_path / "lake.sketches") as store:
            mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared:
            mode = prepared._connection.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_multiprocess_readers_while_parent_writes(self, tmp_path):
        """Build + query interleaved: readers loop over both stores while the
        parent re-sketches tables and writes prepared payloads."""
        csv_paths = _make_lake(tmp_path)
        sketch_path = str(tmp_path / "lake.sketches")
        prepared_path = str(tmp_path / "lake.sketches.prepared")
        matcher = JaccardLevenshteinMatcher()
        store = SketchStore(sketch_path)
        prepared_store = PreparedStore(prepared_path)
        build_from_paths(store, csv_paths)
        prepare_lake(store, prepared_store, matcher)
        names = store.table_names

        queue: multiprocessing.Queue = multiprocessing.Queue()
        readers = [
            multiprocessing.Process(
                target=_reader_loop,
                args=(
                    sketch_path,
                    prepared_path,
                    names,
                    matcher.fingerprint(),
                    15,
                    queue,
                ),
            )
            for _ in range(2)
        ]
        for reader in readers:
            reader.start()
        try:
            # Interleave writes on both stores while the readers run.
            for i in range(10):
                table = Table(
                    f"extra_{i % 2}", [Column("v", [f"x{i}", f"y{i}", f"z{i}"])]
                )
                store.add_table(table)
                prepared_store.put(
                    matcher.prepare(table),
                    content_hash=table_content_hash(table),
                )
        finally:
            outcomes = [queue.get(timeout=60) for _ in readers]
            for reader in readers:
                reader.join(timeout=60)
        for status, detail in outcomes:
            assert status == "ok", f"reader crashed: {detail}"
        # Every reader iteration saw the four prepared lake tables.
        for status, served in outcomes:
            assert served >= 15 * len(names)
        store.close()
        prepared_store.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    def test_forked_child_gets_its_own_connection(self, tmp_path):
        """A store object crossing a fork must lazily open a per-PID
        connection instead of sharing the parent's."""
        csv_paths = _make_lake(tmp_path, num_tables=2)
        store = SketchStore(tmp_path / "lake.sketches")
        build_from_paths(store, csv_paths)
        parent_connection = store._connection
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            status = 1
            try:
                os.close(read_fd)
                sketch = store.get("table_0")
                child_connection = store._connection
                if sketch is not None and child_connection is not parent_connection:
                    status = 0
                os.write(write_fd, b"ok" if status == 0 else b"no")
            finally:
                os._exit(status)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 2) == b"ok"
            _, exit_status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(exit_status) == 0
        finally:
            os.close(read_fd)
        # The parent's connection is untouched by the child's.
        assert store._connection is parent_connection
        assert store.get("table_1") is not None
        store.close()

    def test_in_memory_sketch_store_refuses_cross_process_use(self):
        store = SketchStore()
        store._connections.clear()  # simulate the other side of a fork
        with pytest.raises(RuntimeError, match="in-memory"):
            store._ensure_connection()

    def test_sketch_store_use_after_close_raises(self, tmp_path):
        import sqlite3

        store = SketchStore(tmp_path / "s.sketches")
        store.close()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            store.table_names
        store.close()  # idempotent
