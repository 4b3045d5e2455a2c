"""Tests for the persistent sketch store."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.lake.profiles import SketchConfig
from repro.lake.store import SketchStore


@pytest.fixture
def store():
    with SketchStore() as s:
        yield s


class TestMutations:
    def test_add_get_remove(self, store, clients_table):
        assert store.add_table(clients_table)
        assert len(store) == 1
        assert "clients" in store
        sketch = store.get("clients")
        assert sketch.num_columns == 4
        assert sketch.num_rows == 6
        assert store.remove_table("clients")
        assert len(store) == 0
        assert not store.remove_table("clients")

    def test_unchanged_table_is_a_cache_hit(self, store, clients_table):
        assert store.add_table(clients_table)
        version = store.version
        assert not store.add_table(clients_table)
        assert store.version == version

    def test_changed_content_invalidates(self, store, clients_table):
        store.add_table(clients_table)
        old_hash = store.get("clients").content_hash
        changed = clients_table.with_column(
            Column("Country", ["USA", "China", "USA", "UK", "China", "Peru"])
        )
        assert store.add_table(changed)
        assert store.get("clients").content_hash != old_hash

    def test_version_bumps_on_every_mutation(self, store, clients_table, offices_table):
        assert store.version == 0
        store.add_table(clients_table)
        store.add_table(offices_table)
        assert store.version == 2
        store.remove_table("offices")
        assert store.version == 3

    def test_insertion_order_iteration(self, store, clients_table, offices_table):
        store.add_table(offices_table)
        store.add_table(clients_table)
        assert store.table_names == ["offices", "clients"]
        assert [s.name for s in store] == ["offices", "clients"]


class TestPersistence:
    def test_round_trip_identical_sketches(self, tmp_path, clients_table, offices_table):
        path = tmp_path / "lake.sketches"
        with SketchStore(path) as store:
            store.add_table(clients_table, source_path="/data/clients.csv")
            store.add_table(offices_table)
            before = {s.name: s for s in store}
            version = store.version

        with SketchStore(path) as reopened:
            assert len(reopened) == 2
            assert reopened.version == version
            assert reopened.source_path("clients") == "/data/clients.csv"
            assert reopened.source_path("offices") is None
            for name, sketch in before.items():
                assert reopened.get(name) == sketch

    def test_reopen_with_conflicting_config_raises(self, tmp_path, clients_table):
        path = tmp_path / "lake.sketches"
        with SketchStore(path, config=SketchConfig(num_permutations=64)) as store:
            store.add_table(clients_table)
        with pytest.raises(ValueError):
            SketchStore(path, config=SketchConfig(num_permutations=128))
        # Omitting the config adopts the persisted one.
        with SketchStore(path) as reopened:
            assert reopened.config.num_permutations == 64

    def test_reopen_with_future_schema_version_raises(self, tmp_path, clients_table):
        path = tmp_path / "lake.sketches"
        with SketchStore(path) as store:
            store.add_table(clients_table)
            store._write_meta("schema_version", "999")
            store._connection.commit()
        # No migration, no dual read: any other layout is refused, and the
        # message says how to get a store this code reads.
        with pytest.raises(ValueError, match="schema version 999.*`lake build`"):
            SketchStore(path)

    def test_reopen_after_incremental_update(self, tmp_path, clients_table, offices_table):
        path = tmp_path / "lake.sketches"
        with SketchStore(path) as store:
            store.add_table(clients_table)
        with SketchStore(path) as store:
            store.add_table(offices_table)
            store.remove_table("clients")
        with SketchStore(path) as store:
            assert store.table_names == ["offices"]

    def test_missing_source_path_raises_for_unknown_table(self, store):
        with pytest.raises(KeyError):
            store.source_path("ghost")

    def test_cache_hit_refreshes_moved_source_path(self, store, clients_table):
        store.add_table(clients_table, source_path="/old/clients.csv")
        assert not store.add_table(clients_table, source_path="/new/clients.csv")
        assert store.source_path("clients") == "/new/clients.csv"

    def test_cache_hit_without_path_keeps_recorded_path(self, store, clients_table):
        store.add_table(clients_table, source_path="/old/clients.csv")
        assert not store.add_table(clients_table)  # in-memory re-add, no path
        assert store.source_path("clients") == "/old/clients.csv"
