"""Content-addressed snapshot distribution for lake stores.

The artifact layer turns a lake's stores into a replicable unit: a
publisher node exports sketch (and optionally prepared) stores as a
content-addressed snapshot — ``manifest.json`` plus SHA-256-named blobs —
and replica nodes pull it, fetching only the blobs they are missing (the
set difference between the manifest's entry keys and their own).
:class:`~repro.artifacts.watch.LakeWatcher` closes the loop on the publisher side by folding directory changes into
the stores (and optionally re-publishing) incrementally.
"""

from repro.artifacts.blobs import BlobStore, blob_digest
from repro.artifacts.manifest import (
    BLOBS_DIR,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    Manifest,
    PreparedEntry,
    TableEntry,
)
from repro.artifacts.sync import (
    PublishReport,
    PullReport,
    publish_snapshot,
    pull_snapshot,
)
from repro.artifacts.transport import (
    ArtifactTransport,
    FaultyTransport,
    LocalTransport,
    RetryPolicy,
    TransportError,
)
from repro.artifacts.watch import LakeWatcher, WatchReport

__all__ = [
    "BLOBS_DIR",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "ArtifactTransport",
    "BlobStore",
    "FaultyTransport",
    "LakeWatcher",
    "LocalTransport",
    "Manifest",
    "PreparedEntry",
    "PublishReport",
    "PullReport",
    "RetryPolicy",
    "TableEntry",
    "TransportError",
    "WatchReport",
    "blob_digest",
    "publish_snapshot",
    "pull_snapshot",
]
