"""The contract of ``open_lake``: the one way a lake's stores are opened."""

from __future__ import annotations

import sqlite3

import pytest

from repro.data.table import Table
from repro.discovery.prepared import PreparedStore
from repro.lake.opening import LakeOpenError, lake_generation, open_lake, resolve_prepared_path
from repro.lake.profiles import SketchConfig
from repro.lake.store import SketchStore, store_generation


@pytest.fixture()
def store_path(tmp_path):
    path = tmp_path / "lake.sketches"
    with SketchStore(path) as store:
        store.add_table(Table("t", {"a": [1, 2, 3]}))
    return path


def _foreign_db(path):
    with sqlite3.connect(path) as connection:
        connection.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
    return path


def _closed(store) -> bool:
    with pytest.raises(sqlite3.ProgrammingError):
        len(store)
    return True


class TestPreparedPath:
    def test_default_is_next_to_the_store(self, tmp_path):
        assert resolve_prepared_path(tmp_path / "lake.sketches") == (
            tmp_path / "lake.sketches.prepared"
        )
        assert resolve_prepared_path("lake.sketches").name == "lake.sketches.prepared"

    def test_the_path_cannot_be_named(self, tmp_path):
        """A lake is named by its sketch store alone."""
        with pytest.raises(TypeError):
            resolve_prepared_path(tmp_path / "lake.sketches", tmp_path / "elsewhere.db")
        with pytest.raises(TypeError):
            lake_generation(tmp_path / "lake.sketches", tmp_path / "elsewhere.db")

    def test_generation_covers_both_stores(self, store_path):
        assert lake_generation(store_path) == (store_generation(store_path), None)
        with open_lake(store_path, prepared="create"):
            pass
        prepared_path = resolve_prepared_path(store_path)
        assert lake_generation(store_path) == (
            store_generation(store_path),
            store_generation(prepared_path),
        )
        assert lake_generation(store_path)[1] is not None


class TestSketchStore:
    def test_missing_store_refuses_unless_create(self, tmp_path):
        missing = tmp_path / "nope.sketches"
        with pytest.raises(LakeOpenError, match="run `lake build` first"):
            with open_lake(missing):
                pass
        assert not missing.exists()
        with open_lake(missing, create=True) as (store, prepared_store):
            assert len(store) == 0
            assert prepared_store is None
        assert missing.exists()

    def test_error_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            with open_lake(tmp_path / "nope.sketches"):
                pass

    def test_foreign_sqlite_file_refuses_and_is_left_alone(self, tmp_path):
        foreign = _foreign_db(tmp_path / "app.db")
        with pytest.raises(LakeOpenError, match="not a sketch store"):
            with open_lake(foreign, create=True):
                pass
        with sqlite3.connect(foreign) as connection:
            tables = {r[0] for r in connection.execute("SELECT name FROM sqlite_master")}
        assert tables == {"users"}

    def test_config_mismatch_refuses(self, store_path):
        with pytest.raises(LakeOpenError, match="cannot reopen"):
            with open_lake(store_path, config=SketchConfig(num_permutations=16)):
                pass

    def test_read_only_never_writes(self, store_path):
        with open_lake(store_path, read_only=True) as (store, _):
            assert store.read_only
            with pytest.raises(sqlite3.OperationalError):
                store.add_table(Table("u", {"b": [1]}))


class TestPreparedStore:
    def test_none_leaves_it_closed_and_uncreated(self, store_path):
        with open_lake(store_path) as (_, prepared_store):
            assert prepared_store is None
        assert not resolve_prepared_path(store_path).exists()

    def test_if_present_without_the_file(self, store_path):
        with open_lake(store_path, prepared="if_present") as (_, prepared_store):
            assert prepared_store is None
        assert not resolve_prepared_path(store_path).exists()

    def test_if_present_with_the_file(self, store_path):
        PreparedStore(resolve_prepared_path(store_path)).close()
        with open_lake(store_path, prepared="if_present") as (_, prepared_store):
            assert prepared_store is not None
            assert not prepared_store.read_only
        with open_lake(store_path, prepared="if_present", read_only=True) as (_, prepared_store):
            assert prepared_store.read_only

    def test_create_makes_it_next_to_the_store(self, store_path):
        with open_lake(store_path, prepared="create", read_only=True) as (store, prepared):
            assert store.read_only
            assert not prepared.read_only  # a store being created is writable
            assert prepared.path == str(resolve_prepared_path(store_path))
        assert resolve_prepared_path(store_path).exists()

    def test_a_named_path_is_a_type_error(self, store_path, tmp_path):
        with pytest.raises(TypeError):
            with open_lake(store_path, tmp_path / "named.prepared", prepared="create"):
                pass
        assert not (tmp_path / "named.prepared").exists()

    def test_unknown_mode_is_a_programming_error(self, store_path):
        with pytest.raises(ValueError, match="if_present"):
            with open_lake(store_path, prepared="maybe"):
                pass


class TestTolerance:
    """What `lake query` and `lake serve` share: a broken prepared store
    costs warmth, not the query; every other command fails on it."""

    def test_default_path_unusable_warns_and_runs_cold(self, store_path):
        _foreign_db(resolve_prepared_path(store_path))
        warnings = []
        with open_lake(store_path, prepared="create", warn=warnings.append) as (store, prepared):
            assert prepared is None
            assert len(store) == 1
        assert len(warnings) == 1 and "not a prepared store" in str(warnings[0])

    def test_default_path_unusable_fails_without_warn(self, store_path):
        _foreign_db(resolve_prepared_path(store_path))
        with pytest.raises(LakeOpenError, match="not a prepared store"):
            with open_lake(store_path, prepared="create"):
                pass

    def test_unusable_if_present_store_warns_too(self, store_path):
        """`warn` applies whatever the policy: an existing foreign file
        opened `if_present` is survivable the same way."""
        _foreign_db(resolve_prepared_path(store_path))
        warnings = []
        with open_lake(
            store_path, prepared="if_present", warn=warnings.append
        ) as (_, prepared):
            assert prepared is None
        assert len(warnings) == 1 and "not a prepared store" in str(warnings[0])


class TestClosing:
    def test_both_handles_closed_on_normal_exit(self, store_path):
        with open_lake(store_path, prepared="create") as (store, prepared_store):
            pass
        assert _closed(store) and _closed(prepared_store)

    def test_both_handles_closed_when_the_body_raises(self, store_path):
        with pytest.raises(RuntimeError, match="boom"):
            with open_lake(store_path, prepared="create") as (store, prepared_store):
                raise RuntimeError("boom")
        assert _closed(store) and _closed(prepared_store)

    def test_sketch_store_closed_when_the_prepared_store_fails(self, store_path, monkeypatch):
        _foreign_db(resolve_prepared_path(store_path))
        opened = []
        real_init = SketchStore.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(SketchStore, "__init__", recording_init)
        with pytest.raises(LakeOpenError):
            with open_lake(store_path, prepared="create"):
                pass
        assert len(opened) == 1 and _closed(opened[0])
