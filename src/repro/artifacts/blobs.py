"""Content-addressed blob storage for published lake snapshots.

A snapshot artifact is a directory of immutable blobs named by the SHA-256
of their bytes, plus a manifest pointing at them.  Content addressing is
what makes publish/pull safe and cheap:

* **atomic publish** — blobs are written to a temp file and ``os.replace``d
  into place; a blob path either does not exist or holds exactly the bytes
  its digest promises, so a re-publish can add blobs *in place* while
  readers of the previous manifest keep resolving their (still present)
  blobs.  Only the manifest swap — also a single ``os.replace`` — moves
  readers to the new snapshot.
* **idempotent writes** — re-publishing an unchanged table writes nothing
  (the digest already exists), which is what keeps `lake watch` + republish
  cycles O(delta).
* **verified reads** — :meth:`BlobStore.read` re-hashes and refuses bytes
  that do not match their name, so a torn or tampered blob can never be
  committed into a store.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import Iterator, Union

__all__ = ["BlobStore", "blob_digest"]

_DIGEST = re.compile(r"[0-9a-f]{3,}")


def blob_digest(data: bytes) -> str:
    """The hex SHA-256 content address of *data*."""
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """A directory of immutable blobs addressed by SHA-256 digest.

    Blobs live two levels deep (``blobs/ab/abcdef...``) so a 100k-table
    snapshot does not put every payload in one directory.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path_of(self, digest: str) -> Path:
        if not _DIGEST.fullmatch(digest):
            raise ValueError(f"not a hex blob digest: {digest!r}")
        return self.root / digest[:2] / digest

    def __contains__(self, digest: str) -> bool:
        return self._path_of(digest).is_file()

    def size(self, digest: str) -> int:
        """On-disk byte size of one blob (raises ``KeyError`` when absent)."""
        try:
            return self._path_of(digest).stat().st_size
        except OSError:
            raise KeyError(f"no blob {digest}") from None

    def write(self, data: bytes) -> tuple[str, bool]:
        """Store *data* under its digest; returns ``(digest, written)``.

        ``written`` is False when the blob already existed — the caller's
        re-publish accounting.  The write is atomic (temp file + replace in
        the same directory), so concurrent publishers of identical content
        are harmless.
        """
        digest = blob_digest(data)
        path = self._path_of(digest)
        if path.is_file():
            return digest, False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(prefix=".blob-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return digest, True

    def read_raw(self, digest: str) -> bytes:
        """Load one blob's bytes **without** digest verification.

        This is the transport-layer read: a puller fetching over a possibly
        lossy channel re-hashes the bytes itself against the manifest, so
        verifying here as well would just hash everything twice.  Raises
        ``KeyError`` when the blob is absent.
        """
        try:
            return self._path_of(digest).read_bytes()
        except OSError:
            raise KeyError(f"no blob {digest}") from None

    def read(self, digest: str) -> bytes:
        """Load and verify one blob.

        Raises
        ------
        KeyError
            When no blob with that digest exists.
        ValueError
            When the stored bytes do not hash to their name (corruption).
        """
        data = self.read_raw(digest)
        if blob_digest(data) != digest:
            raise ValueError(
                f"blob {digest} is corrupt: content does not match its address"
            )
        return data

    def digests(self) -> Iterator[str]:
        """Every blob digest currently stored (no particular order)."""
        if not self.root.is_dir():
            return
        with os.scandir(self.root) as shards:
            for shard in filter(os.DirEntry.is_dir, shards):
                with os.scandir(shard.path) as entries:
                    for entry in entries:
                        if entry.is_file() and not entry.name.startswith("."):
                            yield entry.name

    def prune(self, referenced: set[str], stored: set[str]) -> int:
        """Delete the blobs of *stored* (a listing from :meth:`digests`) not in
        *referenced*; returns how many were removed.

        Run *after* the manifest swap: anything the live manifest does not
        reference belongs to superseded snapshots.  The caller's listing is
        reused rather than the directory scanned again.
        """
        removed = 0
        for digest in stored - referenced:
            try:
                self._path_of(digest).unlink()
                removed += 1
            except OSError:
                pass
        return removed
