"""Content-addressed snapshot distribution for lake stores.

The artifact layer turns a lake's stores into a replicable unit: a
publisher node exports sketch (and optionally prepared) stores as a
content-addressed snapshot — ``manifest.json`` plus SHA-256-named blobs —
and replica nodes pull it, fetching only the blobs they are missing.
Delta reconciliation uses an Invertible Bloom Lookup Table exchange with a
full-manifest-diff fallback, so pulls cost O(difference) in the common
case and are always correct.  :class:`~repro.artifacts.watch.LakeWatcher`
closes the loop on the publisher side by folding directory changes into
the stores (and optionally re-publishing) incrementally.
"""

from repro.artifacts.blobs import BlobStore, blob_digest
from repro.artifacts.iblt import IBLTDecodeResult, IBLTSketch, key_fingerprint
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
    "IBLTDecodeResult",
    "IBLTSketch",
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
    "key_fingerprint",
    "publish_snapshot",
    "pull_snapshot",
]
