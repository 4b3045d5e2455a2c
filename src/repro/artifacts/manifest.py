"""The snapshot manifest: one JSON root object naming a lake's content.

A published snapshot is ``manifest.json`` + a :class:`~repro.artifacts.blobs.
BlobStore` directory.  The manifest is the only mutable file in an artifact
and is swapped atomically, so a snapshot is exactly "whatever the manifest
references":

* one :class:`TableEntry` per sketch-store table — ``(name, content hash,
  payload digest, num_rows)``, the blob being the store row's ``sketch``
  bytes verbatim (:meth:`TableSketch.to_bytes
  <repro.lake.profiles.TableSketch.to_bytes>`, canonical JSON: the same
  sketch always gives the same bytes, hence the same digest, hence a no-op
  re-publish);
* one :class:`PreparedEntry` per prepared-store row — ``(matcher
  fingerprint, table name, content hash, payload format, digest)``, the
  blob being the store's encoded row verbatim (data only, see
  :mod:`repro.discovery.prepared_codec`);
* the publishing store's ``version`` and pinned
  :class:`~repro.lake.profiles.SketchConfig` (a puller refuses to mix
  incomparable sketch parameters);
* one :class:`~repro.artifacts.iblt.IBLTSketch` over the table entry
  **keys** and one over the prepared entry keys.  A puller peels the
  difference between either and its local keys — but it has already read
  the full entry lists above (it needs them to map a peeled fingerprint
  back to an entry, and falls back to diffing them when the peel fails),
  so as wired the peel saves no transfer and returns exactly the set
  difference of the two key lists.  The two domains get separate sketches
  because a puller may sync only the sketch store — a combined IBLT would
  then see every prepared key as a difference and never decode.

Entry *keys* are strings (``t|name|hash`` / ``p|fingerprint|name|hash|fmt``),
built only by :attr:`TableEntry.key` / :attr:`PreparedEntry.key` — a table
whose content changes gets a new key, so "changed" is just "one key removed
+ one added" to the reconciliation layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.artifacts.iblt import IBLTSketch
from repro.lake.profiles import SketchConfig

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "BLOBS_DIR",
    "TableEntry",
    "PreparedEntry",
    "Manifest",
]

MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.json"
BLOBS_DIR = "blobs"


@dataclass(frozen=True)
class TableEntry:
    """One sketch-store table in a snapshot.

    ``digest`` is empty for a local store row whose bytes nobody has hashed
    (what pull and verify compare a snapshot's entries against, by ``key``).
    """

    name: str
    content_hash: str
    digest: str = ""
    num_rows: int = 0

    @property
    def key(self) -> str:
        return f"t|{self.name}|{self.content_hash}"

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "content_hash": self.content_hash,
            "digest": self.digest,
            "num_rows": self.num_rows,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TableEntry":
        return cls(
            name=str(data["name"]),
            content_hash=str(data["content_hash"]),
            digest=str(data["digest"]),
            num_rows=int(data.get("num_rows", 0)),
        )


@dataclass(frozen=True)
class PreparedEntry:
    """One prepared-store payload in a snapshot (``digest`` as above)."""

    fingerprint: str
    table_name: str
    content_hash: str
    payload_format: int
    digest: str = ""

    @property
    def key(self) -> str:
        return (
            f"p|{self.fingerprint}|{self.table_name}|{self.content_hash}"
            f"|{self.payload_format}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "table_name": self.table_name,
            "content_hash": self.content_hash,
            "payload_format": self.payload_format,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PreparedEntry":
        return cls(
            fingerprint=str(data["fingerprint"]),
            table_name=str(data["table_name"]),
            content_hash=str(data["content_hash"]),
            payload_format=int(data["payload_format"]),
            digest=str(data["digest"]),
        )


@dataclass
class Manifest:
    """The root object of one published snapshot."""

    sketch_config: SketchConfig
    store_version: int = 0
    tables: list[TableEntry] = field(default_factory=list)
    prepared: list[PreparedEntry] = field(default_factory=list)
    iblt: Optional[IBLTSketch] = None
    prepared_iblt: Optional[IBLTSketch] = None

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def referenced_digests(self) -> set[str]:
        """Digests of every blob this snapshot needs (for pruning)."""
        return {e.digest for e in self.tables} | {e.digest for e in self.prepared}

    @property
    def snapshot_id(self) -> str:
        """Content identity of the snapshot: hash of its sorted entry keys
        and digests (independent of store version or entry order)."""
        payload = json.dumps(
            sorted((entry.key, entry.digest) for entry in self.tables + self.prepared),
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # (de)serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "kind": "lake-snapshot",
            "snapshot_id": self.snapshot_id,
            "store_version": self.store_version,
            "sketch_config": self.sketch_config.as_dict(),
            "tables": [entry.as_dict() for entry in self.tables],
            "prepared": [entry.as_dict() for entry in self.prepared],
            "iblt": None if self.iblt is None else self.iblt.to_dict(),
            "prepared_iblt": (
                None if self.prepared_iblt is None else self.prepared_iblt.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Manifest":
        declared = int(data.get("format", -1))
        if declared != MANIFEST_FORMAT:
            raise ValueError(
                f"snapshot manifest format {declared} is not readable by this "
                f"code (expected {MANIFEST_FORMAT})"
            )
        iblt_data = data.get("iblt")
        prepared_iblt_data = data.get("prepared_iblt")
        return cls(
            sketch_config=SketchConfig.from_dict(data["sketch_config"]),
            store_version=int(data.get("store_version", 0)),
            tables=[TableEntry.from_dict(e) for e in data.get("tables", [])],
            prepared=[PreparedEntry.from_dict(e) for e in data.get("prepared", [])],
            iblt=None if iblt_data is None else IBLTSketch.from_dict(iblt_data),
            prepared_iblt=(
                None
                if prepared_iblt_data is None
                else IBLTSketch.from_dict(prepared_iblt_data)
            ),
        )

    def save(self, artifact_dir: Union[str, Path]) -> Path:
        """Atomically write ``manifest.json`` into *artifact_dir*.

        The temp-file + ``os.replace`` swap is the publication point: a
        concurrent puller sees either the previous complete manifest or
        this one, never a torn file.
        """
        directory = Path(artifact_dir)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / MANIFEST_NAME
        payload = json.dumps(self.as_dict(), indent=1).encode("utf-8")
        fd, temp_name = tempfile.mkstemp(prefix=".manifest-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    @classmethod
    def from_bytes(cls, raw: bytes, origin: str = "manifest") -> "Manifest":
        """Parse manifest bytes as fetched by a transport.

        Raises ``ValueError`` when the bytes are not a readable snapshot
        manifest — which a puller treats as retryable, since a transport
        may have handed back torn or corrupted bytes.
        """
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable snapshot manifest ({origin}): {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != "lake-snapshot":
            raise ValueError(f"{origin} is not a lake snapshot manifest")
        return cls.from_dict(data)

    @classmethod
    def load(cls, artifact_dir: Union[str, Path]) -> "Manifest":
        """Read the manifest of an artifact directory.

        Raises
        ------
        FileNotFoundError
            When *artifact_dir* holds no ``manifest.json``.
        ValueError
            When the file is not a readable snapshot manifest.
        """
        path = Path(artifact_dir) / MANIFEST_NAME
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise FileNotFoundError(
                f"no snapshot manifest at {path}; not a published artifact?"
            ) from exc
        return cls.from_bytes(raw, origin=str(path))
