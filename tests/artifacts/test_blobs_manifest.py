"""Unit tests of the content-addressed blob store and the snapshot manifest."""

from __future__ import annotations

import json

import pytest

from repro.artifacts.blobs import BlobStore, blob_digest
from repro.artifacts.iblt import IBLTSketch
from repro.artifacts.manifest import (
    MANIFEST_NAME,
    Manifest,
    PreparedEntry,
    TableEntry,
)
from repro.data.table import Column, Table
from repro.lake.profiles import SketchConfig, TableSketch, sketch_table


class TestBlobStore:
    def test_write_is_idempotent_and_sharded(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        digest, written = blobs.write(b"hello artifacts")
        assert written and digest == blob_digest(b"hello artifacts")
        digest2, written2 = blobs.write(b"hello artifacts")
        assert digest2 == digest and not written2
        assert (tmp_path / "blobs" / digest[:2] / digest).is_file()
        assert blobs.read(digest) == b"hello artifacts"
        assert blobs.size(digest) == len(b"hello artifacts")

    def test_read_verifies_content(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        digest, _ = blobs.write(b"good bytes")
        (tmp_path / "blobs" / digest[:2] / digest).write_bytes(b"tampered")
        with pytest.raises(ValueError, match="corrupt"):
            blobs.read(digest)

    def test_missing_blob_raises_keyerror(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        with pytest.raises(KeyError):
            blobs.read("ab" * 32)

    def test_prune_keeps_referenced(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        keep, _ = blobs.write(b"keep me")
        drop, _ = blobs.write(b"drop me")
        assert blobs.prune({keep}) == 1
        assert keep in blobs and drop not in blobs


class TestSketchBlobEncoding:
    def test_round_trip_and_stability(self):
        table = Table("demo", [Column("c", ["x", "y", "z", "x"])])
        sketch = sketch_table(table, SketchConfig(), content_hash="h1")
        data = sketch.to_bytes()
        assert data == sketch.to_bytes()  # canonical => stable
        restored = TableSketch.from_bytes(data)
        assert restored == sketch
        assert restored.to_bytes() == data


class TestManifest:
    def _manifest(self) -> Manifest:
        tables = [TableEntry(name="t1", content_hash="h1", digest="d1" * 32, num_rows=4)]
        prepared = [
            PreparedEntry(
                fingerprint="fp",
                table_name="t1",
                content_hash="h1",
                payload_format=1,
                digest="d2" * 32,
            )
        ]
        return Manifest(
            sketch_config=SketchConfig(),
            store_version=3,
            tables=tables,
            prepared=prepared,
            iblt=IBLTSketch.from_keys([e.key for e in tables]),
            prepared_iblt=IBLTSketch.from_keys([e.key for e in prepared]),
        )

    def test_save_load_round_trip(self, tmp_path):
        manifest = self._manifest()
        manifest.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert loaded.snapshot_id == manifest.snapshot_id
        assert loaded.tables == manifest.tables
        assert loaded.prepared == manifest.prepared
        assert loaded.sketch_config == manifest.sketch_config
        assert loaded.store_version == 3
        assert loaded.iblt is not None and loaded.prepared_iblt is not None

    def test_snapshot_id_is_content_identity(self, tmp_path):
        a = self._manifest()
        b = self._manifest()
        b.store_version = 99  # version is provenance, not content
        assert a.snapshot_id == b.snapshot_id
        b.tables.append(TableEntry(name="t2", content_hash="h2", digest="d3" * 32))
        assert a.snapshot_id != b.snapshot_id

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Manifest.load(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("not json at all")
        with pytest.raises(ValueError, match="unreadable"):
            Manifest.load(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a lake snapshot"):
            Manifest.load(tmp_path)

    def test_load_rejects_future_format(self, tmp_path):
        data = self._manifest().as_dict()
        data["format"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format 999"):
            Manifest.load(tmp_path)
