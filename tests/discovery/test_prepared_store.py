"""Tests of the persistent prepared-table store (SQLite, versioned data-only rows)."""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS, prospect_lake

import repro
from repro.data.fingerprint import table_content_hash
from repro.data.table import Column, Table
from repro.discovery import prepared_codec
from repro.discovery.prepared import PREPARED_PAYLOAD_FORMAT, PreparedStore
from repro.matchers.base import PreparedTable
from repro.matchers.cupid import CupidMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import create_matcher
from repro.matchers.semprop import SemPropMatcher
from repro.matchers.semprop.semantic import SemanticLink
from repro.telemetry import TelemetryRecorder, use


def _table(name: str, values: list[object]) -> Table:
    return Table(name, [Column("value", values)])


def _hits_and_misses(recorder: TelemetryRecorder) -> tuple[int, int]:
    """The store's ``(hits, misses)`` as its telemetry counted them."""
    counters = recorder.snapshot().counters
    return counters.get("prepared_store.hits", 0), counters.get("prepared_store.misses", 0)


@pytest.fixture
def query_table() -> Table:
    return Table(
        "query",
        [
            Column("city", ["lisbon", "oslo", "quito", "kyoto", "perth", "accra"]),
            Column("population", [544851, 709037, 2011388, 1463723, 2059484, 2388000]),
        ],
    )


@pytest.fixture
def candidate_table() -> Table:
    return Table(
        "candidate",
        [
            Column("town", ["oslo", "quito", "lisbon", "cairo", "lima", "hanoi"]),
            Column("people", [709037, 2011388, 544851, 10025657, 10092000, 8053663]),
        ],
    )


class TestRoundTripEquality:
    def test_store_loaded_prepared_matches_fresh_for_every_matcher(
        self, query_table, candidate_table
    ):
        """A store-loaded PreparedTable must produce identical matches to a
        fresh prepare — for every registered matcher (tentpole invariant)."""
        from repro.matchers.registry import available_matchers

        for name in sorted(available_matchers()):
            matcher = create_matcher(name, **LIGHT_MATCHER_CONFIGS.get(name, {}))
            with PreparedStore() as store:
                fresh = matcher.prepare(candidate_table)
                content_hash = table_content_hash(candidate_table)
                store.put(fresh, content_hash)
                loaded = store.get(matcher.fingerprint(), candidate_table.name, content_hash)
                assert loaded is not None, f"{name}: stored payload not found"
                assert loaded.fingerprint == fresh.fingerprint

                query_prepared = matcher.prepare(query_table)
                via_fresh = matcher.match_prepared(query_prepared, fresh)
                via_loaded = matcher.match_prepared(query_prepared, loaded)
                assert via_loaded.matches == via_fresh.matches, (
                    f"{name}: matches diverged after a store round trip"
                )

    @pytest.mark.parametrize("method", sorted(LIGHT_MATCHER_CONFIGS))
    def test_codec_round_trip_keeps_every_score_on_the_grid_tables(self, method):
        """encode → decode → ``match_prepared`` scores every pair of the
        oracle grid's lake with the same double as the in-memory payloads,
        from header and payload alone."""
        query, tables = prospect_lake(slices=5)
        matcher = create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])

        def stored(prepared: PreparedTable) -> PreparedTable:
            blob = prepared_codec.encode(prepared)
            decoded = prepared_codec.decode(blob)
            assert decoded.table is None and decoded.header == prepared.header
            assert prepared_codec.encode(decoded) == blob  # canonical bytes
            return decoded

        prepared_query = matcher.prepare(query)
        stored_query = stored(prepared_query)
        for table in tables:
            prepared = matcher.prepare(table)
            expected = matcher.match_prepared(prepared_query, prepared).matches
            assert matcher.match_prepared(stored_query, stored(prepared)).matches == expected


class TestInvalidation:
    def test_content_hash_invalidation(self):
        matcher = JaccardLevenshteinMatcher()
        recorder = TelemetryRecorder()
        with PreparedStore() as store, use(recorder):
            store.prepare(matcher, _table("t", ["a", "b"]))
            # Same name, new cells: the old payload must not be served.
            prepared = store.prepare(matcher, _table("t", ["a", "b", "c"]))
            assert _hits_and_misses(recorder) == (0, 2)
            assert set(prepared.payload["value_sets"]["value"]) == {"a", "b", "c"}

    def test_matcher_fingerprint_invalidation(self):
        """A prepare-relevant config change must miss; a match-stage-only
        change shares the entry (prepare_parameters semantics)."""
        from repro.matchers.distribution_based import DistributionBasedMatcher

        table = _table("t", ["a", "b", "c"])
        recorder = TelemetryRecorder()
        with PreparedStore() as store, use(recorder):
            store.prepare(DistributionBasedMatcher(sample_size=2), table)
            store.prepare(DistributionBasedMatcher(sample_size=3), table)
            assert _hits_and_misses(recorder) == (0, 2)
            store.prepare(DistributionBasedMatcher(sample_size=2, phase1_threshold=0.5), table)
            assert _hits_and_misses(recorder) == (1, 2)

    def test_foreign_payload_format_is_a_miss_and_is_replaced(self):
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a"])
        with PreparedStore() as store:
            prepared = store.prepare(matcher, table)
            store._connection.execute(
                "UPDATE prepared SET payload_format = ?", (PREPARED_PAYLOAD_FORMAT + 1,)
            )
            store._connection.commit()
            assert (
                store.get(
                    matcher.fingerprint(), table.name, table_content_hash(table)
                )
                is None
            )
            assert len(store) == 0  # the stale row was dropped
            again = store.prepare(matcher, table)
            assert again.payload == prepared.payload

    def test_corrupt_pickle_is_a_miss(self):
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a"])
        with PreparedStore() as store:
            store.prepare(matcher, table)
            store._connection.execute(
                "UPDATE prepared SET payload = ?", (b"not a pickle",)
            )
            store._connection.commit()
            assert (
                store.get(matcher.fingerprint(), table.name, table_content_hash(table))
                is None
            )

    def test_mismatched_decoded_fingerprint_is_a_miss(self):
        """A payload pickled under one fingerprint must never be served for
        another, even if the row key claims otherwise."""
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a"])
        with PreparedStore() as store:
            foreign = PreparedTable(table=table, fingerprint="somebody-else")
            blob = prepared_codec.encode(foreign)
            store._connection.execute(
                "INSERT INTO prepared (matcher_fingerprint, table_name, content_hash, "
                "payload_format, payload) VALUES (?, ?, ?, ?, ?)",
                (
                    matcher.fingerprint(),
                    table.name,
                    table_content_hash(table),
                    PREPARED_PAYLOAD_FORMAT,
                    blob,
                ),
            )
            store._connection.commit()
            assert (
                store.get(matcher.fingerprint(), table.name, table_content_hash(table))
                is None
            )


class TestPersistenceAndBounds:
    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "lake.sketches.prepared"
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a", "b"])
        with PreparedStore(path) as store:
            first = store.prepare(matcher, table)
        recorder = TelemetryRecorder()
        with PreparedStore(path) as reopened, use(recorder):
            second = reopened.prepare(matcher, table)
            assert _hits_and_misses(recorder) == (1, 0)
            assert second.payload == first.payload
            assert second.table is table  # the caller's table rides along
            assert second.header == first.header

    def test_put_raw_never_evicts(self):
        """The store is the lake's rows, not a cache: past the 4,096 rows
        the LRU used to keep, every row written is still there."""
        with PreparedStore() as store:
            for i in range(4097):
                store.put_raw("f", f"t{i}", "h", PREPARED_PAYLOAD_FORMAT, b"x")
            assert len(store) == 4097
            assert store.contains_many("f", [("t0", "h"), ("t4096", "h")]) == {
                "t0",
                "t4096",
            }

    def test_total_bytes_tracks_stored_payloads(self):
        matcher = JaccardLevenshteinMatcher()
        with PreparedStore() as store:
            assert store.total_bytes == 0
            store.prepare(matcher, _table("t", ["a"]))
            assert store.total_bytes > 0
            assert store.stats()["total_payload_bytes"] == store.total_bytes

    def test_reads_write_nothing(self, tmp_path):
        """Serving a row records nothing: a hit through ``prepare``, ``get``
        and ``get_many`` on a writable store leaves the file unchanged."""
        path = tmp_path / "p.prepared"
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a", "b"])
        content_hash = table_content_hash(table)
        with PreparedStore(path) as store:
            store.prepare(matcher, table)
        with PreparedStore(path) as store:
            recorder = TelemetryRecorder()
            with use(recorder):
                store.prepare(matcher, table)
                assert store.get(matcher.fingerprint(), table.name, content_hash)
                assert store.get_many(matcher.fingerprint(), [(table.name, content_hash)])
            assert _hits_and_misses(recorder) == (3, 0)
            assert store._connection.total_changes == 0

    def test_prune_stale_removes_only_superseded_rows(self):
        """The store never drops a row on its own; ``prune_stale`` removes
        the rows of one matcher whose table is gone or whose content hash
        is not the current one, and nothing else."""
        with PreparedStore() as store:
            for name, content_hash in (("kept", "h1"), ("changed", "old"), ("gone", "h3")):
                store.put_raw("f", name, content_hash, PREPARED_PAYLOAD_FORMAT, b"x")
            store.put_raw("other", "gone", "h3", PREPARED_PAYLOAD_FORMAT, b"x")
            assert store.prune_stale("f", {"kept": "h1", "changed": "new"}) == 2
            assert store.raw_keys() == [
                ("f", "kept", "h1", PREPARED_PAYLOAD_FORMAT),
                ("other", "gone", "h3", PREPARED_PAYLOAD_FORMAT),
            ]
            assert store.prune_stale("f", {"kept": "h1"}) == 0

    def test_refuses_foreign_sqlite_file(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE something_else (x INTEGER)")
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match="not a prepared store"):
            PreparedStore(path)

    def test_refuses_future_schema_version(self, tmp_path):
        path = tmp_path / "p.prepared"
        with PreparedStore(path) as store:
            store._write_meta("schema_version", "999")
            store._connection.commit()
        with pytest.raises(ValueError, match="schema version 999"):
            PreparedStore(path)

    def test_refuses_schema_1_naming_the_file_and_the_fix(self, tmp_path):
        """A store written with the LRU layout is refused, never migrated,
        and the refusal says what to delete and what recreates it."""
        path = tmp_path / "p.prepared"
        with PreparedStore(path) as store:
            store._write_meta("schema_version", "1")
            store._connection.commit()
        with pytest.raises(ValueError, match="schema version 1") as excinfo:
            PreparedStore(path)
        assert f"delete {path}" in str(excinfo.value)
        assert "`lake prepare <matcher>`" in str(excinfo.value)


class TestBatchReads:
    def _warm(self, store, matcher, tables):
        for table in tables:
            store.prepare(matcher, table)

    def test_get_many_returns_only_matching_keys(self):
        matcher = JaccardLevenshteinMatcher()
        tables = [_table(f"t{i}", [f"v{i}"]) for i in range(3)]
        with PreparedStore() as store:
            self._warm(store, matcher, tables)
            fingerprint = matcher.fingerprint()
            keys = [(t.name, table_content_hash(t)) for t in tables]
            recorder = TelemetryRecorder()
            with use(recorder):
                found = store.get_many(fingerprint, keys + [("ghost", "nohash")])
            assert sorted(found) == ["t0", "t1", "t2"]
            assert _hits_and_misses(recorder) == (3, 0)
            for table in tables:
                assert found[table.name].payload == matcher.prepare(table).payload

    def test_get_many_rejects_stale_content_hash(self):
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a"])
        with PreparedStore() as store:
            store.prepare(matcher, table)
            found = store.get_many(matcher.fingerprint(), [("t", "different-hash")])
            assert found == {}
            # The stored row is another generation's, not corrupt: kept.
            assert len(store) == 1

    def test_get_many_discards_corrupt_rows(self):
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a"])
        with PreparedStore() as store:
            store.prepare(matcher, table)
            store._connection.execute("UPDATE prepared SET payload = ?", (b"junk",))
            store._connection.commit()
            found = store.get_many(
                matcher.fingerprint(), [("t", table_content_hash(table))]
            )
            assert found == {} and len(store) == 0

    def test_get_many_spans_in_clause_chunks(self):
        from repro.discovery import prepared as prepared_module

        matcher = JaccardLevenshteinMatcher()
        tables = [_table(f"t{i:03d}", [i]) for i in range(7)]
        with PreparedStore() as store:
            self._warm(store, matcher, tables)
            keys = [(t.name, table_content_hash(t)) for t in tables]
            original = prepared_module._MAX_IN_VARS
            prepared_module._MAX_IN_VARS = 3  # force several IN(...) chunks
            try:
                found = store.get_many(matcher.fingerprint(), keys)
            finally:
                prepared_module._MAX_IN_VARS = original
            assert len(found) == 7

    def test_contains_many(self):
        matcher = JaccardLevenshteinMatcher()
        tables = [_table(f"t{i}", [i]) for i in range(2)]
        with PreparedStore() as store:
            self._warm(store, matcher, tables)
            fingerprint = matcher.fingerprint()
            keys = [(t.name, table_content_hash(t)) for t in tables]
            assert store.contains_many(fingerprint, keys) == {"t0", "t1"}
            assert store.contains_many(fingerprint, [("t0", "wrong-hash")]) == set()
            assert store.contains_many("nobody", keys) == set()


class TestRecencyDurability:
    def test_read_only_store_serves_without_writing(self, tmp_path):
        path = tmp_path / "p.prepared"
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a", "b"])
        with PreparedStore(path) as store:
            expected = store.prepare(matcher, table)
        with PreparedStore(path, read_only=True) as reader:
            loaded = reader.get(
                matcher.fingerprint(), table.name, table_content_hash(table)
            )
            assert loaded is not None and loaded.payload == expected.payload
            found = reader.get_many(
                matcher.fingerprint(), [(table.name, table_content_hash(table))]
            )
            assert set(found) == {table.name}
            assert reader._connection.total_changes == 0

    def test_read_only_refuses_missing_store(self, tmp_path):
        with pytest.raises(ValueError, match="cannot open"):
            PreparedStore(tmp_path / "absent.prepared", read_only=True)

    def test_use_after_close_raises(self, tmp_path):
        """close() must make the store unusable — not silently reopen a
        fresh (and leaked) connection through the per-PID lookup."""
        import sqlite3

        matcher = JaccardLevenshteinMatcher()
        store = PreparedStore(tmp_path / "p.prepared")
        store.prepare(matcher, _table("t", ["a"]))
        store.close()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            store.get(matcher.fingerprint(), "t", "whatever")
        store.close()  # idempotent

    def test_in_memory_store_refuses_cross_process_use(self):
        store = PreparedStore()
        try:
            # Simulate the other side of a fork: no connection for this PID.
            store._connections.clear()
            with pytest.raises(RuntimeError, match="in-memory"):
                store._ensure_connection()
        finally:
            store._connections.clear()  # nothing left to close


class _Detonator:
    """Unpickling this creates *marker* — a stand-in for arbitrary code."""

    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (os.mkdir, (str(self.marker),))


class TestRowsNeverExecute:
    @pytest.mark.parametrize("payload_format", sorted({1, PREPARED_PAYLOAD_FORMAT}))
    def test_a_pickled_row_committed_like_a_pull_is_discarded_unrun(
        self, tmp_path, payload_format
    ):
        """A row arrives through ``put_raw``, as ``lake pull`` commits it; its
        bytes are a pickle whose loading would create a marker file.  Read
        through ``get_many`` and through ``get``, it is refused and deleted,
        and nothing runs — at the current format and at the old one."""
        marker = tmp_path / "detonated"
        blob = pickle.dumps(_Detonator(marker), protocol=4)
        matcher = JaccardLevenshteinMatcher()
        fingerprint, table = matcher.fingerprint(), _table("t", ["a"])
        content_hash = table_content_hash(table)
        reads = (
            lambda store: store.get_many(fingerprint, [(table.name, content_hash)]),
            lambda store: store.get(fingerprint, table.name, content_hash),
        )
        recorder = TelemetryRecorder()
        with PreparedStore(tmp_path / "p.prepared") as store, use(recorder):
            for read in reads:
                store.put_raw(fingerprint, table.name, content_hash, payload_format, blob)
                assert not read(store)
                assert not marker.exists()
                assert len(store) == 0
        assert recorder.snapshot().counters["prepared_store.discarded_rows"] == 2

    def test_nothing_under_src_unpickles(self):
        """An AST census: no ``pickle.loads`` / ``pickle.load`` /
        ``Unpickler`` anywhere under ``src/`` — not on store or pulled
        bytes, not on anything else."""
        source = Path(repro.__file__).parent
        found = []
        for path in sorted(source.rglob("*.py")):
            census = _UnpickleCensus()
            census.visit(ast.parse(path.read_text(encoding="utf-8")))
            found += [(path.relative_to(source).as_posix(), where) for where in census.found]
        assert found == []


class _UnpickleCensus(ast.NodeVisitor):
    """Names the function around every unpickling call or import."""

    _CALLS = {"load", "loads", "Unpickler"}
    _MODULES = {"pickle", "_pickle", "cPickle"}

    def __init__(self) -> None:
        self.found: list[str] = []
        self.functions = ["<module>"]
        self.aliases = set(self._MODULES)

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self._MODULES:
                self.aliases.add(alias.asname or alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self._MODULES:
            if any(alias.name in self._CALLS or alias.name == "*" for alias in node.names):
                self.found.append(self.functions[-1])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in self._CALLS
            and isinstance(node.value, ast.Name)
            and node.value.id in self.aliases
        ):
            self.found.append(self.functions[-1])
        self.generic_visit(node)


def _golden_table() -> Table:
    return Table(
        "golden",
        {
            "customer_name": ["Ann", "Bob", None, "Cy"],
            "amount": [1.5, 2.0, 2.0, 3.25],
            "zip": ["1000", "2000", "3000", "4000"],
        },
    )


class TestGoldenRows:
    """A stored row is a published blob too: changing what the codec emits
    orphans every store and artifact in the field, so it has to be done on
    purpose — bump ``PREPARED_PAYLOAD_FORMAT`` together with these digests."""

    def _pinned(self, prepared: PreparedTable, digest: str) -> None:
        blob = prepared_codec.encode(prepared)
        assert hashlib.sha256(blob).hexdigest() == digest
        decoded = prepared_codec.decode(blob)
        assert decoded.header == prepared.header
        assert prepared_codec.encode(decoded) == blob

    def test_semprop_row_bytes_are_pinned(self):
        table = _golden_table()
        real = SemPropMatcher(num_permutations=4).prepare(table)
        prepared = replace(
            real,
            fingerprint="golden-semprop",
            payload={
                "links": {
                    "customer_name": [SemanticLink("customer_name", "customer", 0.75)],
                    "amount": [],
                    "zip": [],
                },
                "signatures": np.array(
                    [[3, 1, 4, 1], [5, 9, 2, 6], [2**32 - 1] * 4], dtype=np.uint32
                ),
                "set_sizes": np.array([3, 3, 0], dtype=np.int64),
            },
        )
        # The fabricated payload has exactly the shape SemProp prepares.
        assert list(prepared.payload) == list(real.payload)
        for key in ("signatures", "set_sizes"):
            assert prepared.payload[key].dtype == real.payload[key].dtype
            assert prepared.payload[key].shape == real.payload[key].shape
        self._pinned(
            prepared, "266a1f61a6523b8e5ac8eaba6f748bcbd133da902b61b4cd30c5dad6876b1217"
        )

    def test_cupid_row_bytes_are_pinned(self):
        prepared = replace(CupidMatcher().prepare(_golden_table()), fingerprint="golden-cupid")
        self._pinned(
            prepared, "6524295dd125647057f79bdf64360d0b87f664405950bf2fcc71bbf710050380"
        )


class TestCodecRefusals:
    """Anything but an encoded row is a ``ValueError`` — the discard path."""

    @pytest.fixture(scope="class")
    def semprop_row(self) -> bytes:
        matcher = SemPropMatcher(**LIGHT_MATCHER_CONFIGS["semprop"])
        return prepared_codec.encode(matcher.prepare(_golden_table()))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: b"not a payload",
            lambda blob: b"",
            lambda blob: blob[:-5],  # a truncated array section
            lambda blob: blob[:20],  # a truncated skeleton
            lambda blob: blob + b"\x00",  # trailing bytes
            lambda blob: blob.replace(b'"ndarray"', b'"nparray"', 1),  # unknown tag
            lambda blob: blob.replace(b'"ndarray","<u4",[3,', b'"ndarray","<u4",[4,', 1),
            lambda blob: blob.replace(b'"SemanticLink"', b'"subprocess.x"', 1),
        ],
        ids=[
            "garbage", "empty", "truncated-section", "truncated-skeleton",
            "trailing-bytes", "unknown-tag", "shape-mismatch", "foreign-tag",
        ],
    )  # fmt: skip
    def test_damaged_rows_raise_value_error_and_are_discarded(self, semprop_row, damage):
        blob = damage(semprop_row)
        assert blob != semprop_row
        with pytest.raises(ValueError, match="not a prepared row"):
            prepared_codec.decode(blob)
        matcher = SemPropMatcher(**LIGHT_MATCHER_CONFIGS["semprop"])
        with PreparedStore() as store:
            store.put_raw(matcher.fingerprint(), "golden", "h", PREPARED_PAYLOAD_FORMAT, blob)
            assert store.get(matcher.fingerprint(), "golden", "h") is None
            assert len(store) == 0

    def test_values_outside_the_allowlist_are_not_written(self):
        table = _golden_table()
        prepared = PreparedTable(table=table, fingerprint="f", payload={"x": object()})
        with pytest.raises(ValueError, match="cannot be stored"):
            prepared_codec.encode(prepared)
        with pytest.raises(ValueError, match="string keys"):
            prepared_codec.encode(replace(prepared, payload={"x": {1: "one"}}))
        with pytest.raises(ValueError, match="dtype"):
            prepared_codec.encode(replace(prepared, payload={"x": np.zeros(2, dtype=np.int8)}))
