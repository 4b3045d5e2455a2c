"""Publish and pull: moving lake snapshots between nodes by content address.

The replication topology is **single writer, many readers**: one node owns
the sketch/prepared stores (it runs ``lake build`` / ``lake watch``),
periodically :func:`publish_snapshot`-es them into an artifact directory
(local disk, NFS export, object-store mount — anything path-like), and any
number of query nodes :func:`pull_snapshot` the artifact into their own
local stores.  A blob *is* a store row: publish ships ``get_raw()`` bytes
and pull commits them with ``put_raw()``, verbatim, so nothing here encodes
or decodes a payload and one publish loop and one pull loop serve both
stores, each described to them by a :class:`_Domain`.  Applied pulls bump
the store version — a running ``lake serve`` daemon on the replica notices
via its ``store_generation`` probe and reopens live.

Delta publish.  Every store row keeps the SHA-256 of its bytes, written
with the row, so a publish lists the stores' keys and digests
(``raw_keys()``) and the blob directory once, and reads only the rows whose
blob is not on disk: a republish after *k* edits reads and hashes the *k*
new rows of each store, not all of them, and a blob deleted by hand is
rewritten by the next publish.  The digests come from the stores, never
from the previous manifest, whose entries are only as right as the code
that wrote them.

Delta sync.  A pull reads the manifest's entry lists, whose *keys*
(``t|name|hash`` / ``p|fingerprint|name|hash|fmt``) it compares with its
local stores' keys: it fetches ``remote − local`` and retires
``local − remote``, so only missing blobs are read and shared ones cost
nothing.  Telemetry counters: ``artifacts.pull.blobs_fetched`` /
``blobs_skipped`` / ``bytes_fetched``.

Fault tolerance.  A pull reads through an
:class:`~repro.artifacts.transport.ArtifactTransport` (a plain path is
wrapped in a :class:`~repro.artifacts.transport.LocalTransport`) and treats
the channel as lossy: every fetched blob is re-hashed against its manifest
digest, and a mismatch or transient transport error triggers a bounded
backoff-and-retry (:class:`~repro.artifacts.transport.RetryPolicy` — per
blob attempts plus a pull-wide budget) rather than an abort.  Each key is
committed to its store before the next is fetched, so the pull after one
killed mid-flight finds the committed rows by reconciliation (they count
as ``blobs_skipped``) and fetches only the rest.  Counter: ``sync.retries``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.artifacts.blobs import BlobStore, blob_digest
from repro.artifacts.manifest import (
    BLOBS_DIR,
    Manifest,
    PreparedEntry,
    TableEntry,
)
from repro.artifacts.transport import (
    ArtifactTransport,
    LocalTransport,
    RetryPolicy,
    RetryState,
    TransportError,
)
from repro.discovery.prepared import PreparedStore
from repro.lake.store import SketchStore
from repro.telemetry import recorder as telemetry

__all__ = ["PublishReport", "PullReport", "publish_snapshot", "pull_snapshot"]

logger = logging.getLogger(__name__)


_Entry = Union[TableEntry, PreparedEntry]


@dataclass(frozen=True)
class _Domain:
    """One store's side of the publish loop and the pull loop.

    A *slot* is the store's primary key for a row, table name first: what a
    commit overwrites and a retire deletes.
    """

    label: str
    #: An entry per row the store holds now, with the row's stored digest.
    local: Callable[[], Iterable[_Entry]]
    #: The bytes of one entry's row.
    read: Callable[[_Entry], bytes]
    slot: Callable[[_Entry], tuple]
    #: Store fetched bytes verbatim in the entry's slot; ``ValueError`` when
    #: the store refuses them (nothing written).
    commit: Callable[[_Entry, bytes], None]
    #: ``retire(*slot)`` deletes a row; returns whether it existed.
    retire: Callable[..., bool]


def _table_domain(store: SketchStore) -> _Domain:
    return _Domain(
        label="table",
        local=lambda: (TableEntry(*row) for row in store.raw_keys()),
        read=lambda entry: store.get_raw(entry.name, entry.content_hash),
        slot=lambda entry: (entry.name,),
        commit=lambda entry, data: store.put_raw(entry.name, entry.content_hash, data),
        retire=store.remove_table,
    )


def _prepared_domain(prepared_store: PreparedStore) -> _Domain:
    return _Domain(
        label="prepared payload",
        local=lambda: (PreparedEntry(*row) for row in prepared_store.raw_keys()),
        read=lambda entry: prepared_store.get_raw(
            entry.fingerprint, entry.table_name, entry.content_hash
        ),
        slot=lambda entry: (entry.table_name, entry.fingerprint, entry.content_hash),
        commit=lambda entry, data: prepared_store.put_raw(
            entry.fingerprint,
            entry.table_name,
            entry.content_hash,
            entry.payload_format,
            data,
        ),
        retire=lambda name, fingerprint, content_hash: prepared_store.remove_raw(
            fingerprint, name, content_hash
        ),
    )


# ---------------------------------------------------------------------- #
# publish
# ---------------------------------------------------------------------- #


@dataclass
class PublishReport:
    """Outcome of one :func:`publish_snapshot` run."""

    snapshot_id: str = ""
    tables: int = 0
    prepared: int = 0
    #: Blobs actually written vs already present from a previous publish —
    #: an unchanged re-publish writes zero blobs.
    blobs_written: int = 0
    blobs_reused: int = 0
    bytes_written: int = 0
    blobs_pruned: int = 0


def publish_snapshot(
    store: SketchStore,
    artifact_dir: Union[str, Path],
    prepared_store: Optional[PreparedStore] = None,
) -> PublishReport:
    """Export *store* (and optionally *prepared_store*) as a snapshot artifact.

    Blobs are content-addressed and written first (atomically; a row whose
    stored digest is already on disk is not even read), the manifest swap
    is the single publication point, and unreferenced blobs of superseded
    snapshots are pruned after the swap — so re-publishing in place is safe
    under concurrent pulls and costs O(delta) reads and writes.

    Parameters
    ----------
    store / prepared_store:
        The stores to export.  Rows of both are shipped verbatim (prepared
        payloads: current payload format only); pass ``None`` to publish
        sketches only.
    artifact_dir:
        Destination directory (created on demand).  Its blob directory
        belongs to this one publisher, so every blob the new manifest does
        not reference is deleted after the swap.
    """
    report = PublishReport()
    directory = Path(artifact_dir)
    blobs = BlobStore(directory / BLOBS_DIR)
    with telemetry.span("artifacts.publish", store=store.path):
        listed = set(blobs.digests())
        table_entries = _publish_rows(_table_domain(store), blobs, listed, report)
        prepared_entries = []
        if prepared_store is not None:
            prepared_entries = _publish_rows(
                _prepared_domain(prepared_store), blobs, listed, report
            )
        manifest = Manifest(
            sketch_config=store.config,
            store_version=store.version,
            tables=table_entries,
            prepared=prepared_entries,
        )
        report.snapshot_id = manifest.save(directory)
        report.blobs_pruned = blobs.prune(manifest.referenced_digests(), listed)
    report.tables = len(table_entries)
    report.prepared = len(prepared_entries)
    telemetry.count("artifacts.publish.blobs_written", report.blobs_written)
    telemetry.count("artifacts.publish.blobs_reused", report.blobs_reused)
    telemetry.count("artifacts.publish.bytes_written", report.bytes_written)
    logger.info(
        "published snapshot %s: %d tables, %d prepared payloads "
        "(%d blobs written, %d reused, %d pruned)",
        report.snapshot_id[:12],
        report.tables,
        report.prepared,
        report.blobs_written,
        report.blobs_reused,
        report.blobs_pruned,
    )
    return report


def _publish_rows(
    domain: _Domain, blobs: BlobStore, listed: set[str], report: PublishReport
) -> list:
    """The manifest entries of *domain*'s rows, writing a blob for each row
    whose stored digest is not in *listed* (the blob directory's digests,
    which gain every blob written here)."""
    entries = []
    for entry in domain.local():
        if entry.digest in listed:
            report.blobs_reused += 1
            entries.append(entry)
            continue
        data = bytes(domain.read(entry))
        digest, written = blobs.write(data)
        if written:
            report.blobs_written += 1
            report.bytes_written += len(data)
        else:
            report.blobs_reused += 1
        listed.add(digest)
        entries.append(replace(entry, digest=digest))
    return entries


# ---------------------------------------------------------------------- #
# pull
# ---------------------------------------------------------------------- #


@dataclass
class PullReport:
    """Outcome of one :func:`pull_snapshot` run."""

    snapshot_id: str = ""
    tables_added: int = 0
    tables_removed: int = 0
    prepared_added: int = 0
    prepared_removed: int = 0
    #: Blob traffic: fetched = read from the artifact (the bytes a remote
    #: transport would move), skipped = referenced by the manifest but
    #: already present locally (zero transfer).
    blobs_fetched: int = 0
    blobs_skipped: int = 0
    bytes_fetched: int = 0
    #: Tables whose fetched blob failed digest/identity verification even
    #: after retries (the pull skips them and keeps whatever the local
    #: store had — a later pull retries them from scratch).
    corrupt: list[str] = field(default_factory=list)
    #: Transport reads retried after a failure or digest mismatch.
    retries: int = 0
    # Constant zeros, not fields: lakebench's adapter is their only reader,
    # and they go with its artifacts.iblt_decode_ok_share probe in the next
    # change to the benchmark (ROADMAP item 2d).
    iblt_decoded = 0
    iblt_fallback = 0

    @property
    def unchanged(self) -> bool:
        """True when the pull found the local stores already in sync."""
        return (
            self.tables_added
            == self.tables_removed
            == self.prepared_added
            == self.prepared_removed
            == 0
        )


class _FetchFailed(Exception):
    """A blob could not be fetched intact within the retry policy."""


def _fetch_manifest(
    transport: ArtifactTransport, retry_state: Optional[RetryState], report: PullReport
) -> Manifest:
    """Fetch + parse the manifest, retrying transient/corrupt reads.

    A refused manifest is re-read at once: the same bytes are the artifact's
    own (an old format, a malformed file) and final; other bytes were torn
    or flipped in transit, and are retried.
    """
    attempt = 1
    while True:
        try:
            raw = transport.read_manifest()
            try:
                return Manifest.from_bytes(raw, origin=transport.describe())
            except ValueError as refusal:
                if transport.read_manifest() == raw:
                    raise
                exc: Exception = refusal
        except FileNotFoundError:
            raise  # never published: retrying cannot help
        except (TransportError, OSError) as failure:
            exc = failure
        if retry_state is None or not retry_state.pause(attempt):
            raise exc
        attempt += 1
        report.retries += 1
        logger.warning(
            "retrying manifest read from %s (attempt %d): %s", transport.describe(), attempt, exc
        )


def _fetch_blob(
    transport: ArtifactTransport,
    digest: str,
    retry_state: Optional[RetryState],
    report: PullReport,
) -> bytes:
    """Fetch one blob and verify it against its content address.

    Transient errors, absent blobs (a concurrent re-publish may have
    pruned and re-added), and digest mismatches (torn or corrupted
    transfer) all retry under the policy; exhaustion raises
    :class:`_FetchFailed` so the caller can skip just this entry.
    """
    attempt = 1
    while True:
        failure: str
        try:
            data = transport.read_blob(digest)
        except (KeyError, TransportError, OSError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        else:
            if blob_digest(data) == digest:
                return data
            failure = "content does not match digest (corrupt transfer)"
        if retry_state is None or not retry_state.pause(attempt):
            raise _FetchFailed(f"blob {digest[:12]}…: {failure}")
        attempt += 1
        report.retries += 1


def pull_snapshot(
    source: Union[str, Path, ArtifactTransport],
    store: SketchStore,
    prepared_store: Optional[PreparedStore] = None,
    remove_missing: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> PullReport:
    """Sync local stores to the snapshot published at *source*.

    Only blobs whose keys are missing locally are read (delta fetch); local
    tables and payloads absent from the snapshot are retired when
    *remove_missing* is set, so the replica converges to exactly the
    published state.  All writes go through the stores' own raw-row APIs in
    this (single-writer) process; every applied change bumps the sketch
    store's monotone version, which is what a serving daemon's generation
    probe watches.

    Parameters
    ----------
    source:
        An artifact directory path, or any
        :class:`~repro.artifacts.transport.ArtifactTransport`.
    retry:
        Backoff policy for transient transport failures and corrupt
        transfers (default: :class:`RetryPolicy()`); an entry that stays
        unfetchable after retries lands in ``report.corrupt`` instead of
        aborting the pull.

    Raises
    ------
    FileNotFoundError / ValueError
        Unreadable artifact, or a sketch-config mismatch with the local
        store (signatures would not be comparable).
    """
    transport = (
        source if isinstance(source, ArtifactTransport) else LocalTransport(source)
    )
    report = PullReport()
    retry_state = (retry or RetryPolicy()).start()
    manifest = _fetch_manifest(transport, retry_state, report)
    if manifest.sketch_config != store.config:
        raise ValueError(
            f"snapshot at {transport.describe()} was published with "
            f"{manifest.sketch_config}, local store uses {store.config}; "
            "refusing to mix incomparable sketches"
        )
    report.snapshot_id = manifest.snapshot_id

    shared = (transport, remove_missing, report, retry_state)
    with telemetry.span("artifacts.pull", artifact=transport.describe()):
        report.tables_added, report.tables_removed = _pull_entries(
            _table_domain(store), manifest.tables, *shared
        )
        if prepared_store is not None:
            report.prepared_added, report.prepared_removed = _pull_entries(
                _prepared_domain(prepared_store),
                manifest.prepared,
                *shared,
            )
    telemetry.count("artifacts.pull.blobs_fetched", report.blobs_fetched)
    telemetry.count("artifacts.pull.blobs_skipped", report.blobs_skipped)
    telemetry.count("artifacts.pull.bytes_fetched", report.bytes_fetched)
    telemetry.count("sync.retries", report.retries)
    logger.info(
        "pulled snapshot %s: +%d/-%d tables, +%d/-%d prepared "
        "(%d blobs fetched / %d skipped, %d bytes, %d retries)",
        report.snapshot_id[:12],
        report.tables_added,
        report.tables_removed,
        report.prepared_added,
        report.prepared_removed,
        report.blobs_fetched,
        report.blobs_skipped,
        report.bytes_fetched,
        report.retries,
    )
    return report


def _pull_entries(
    domain: _Domain,
    entries: Sequence[_Entry],
    transport: ArtifactTransport,
    remove_missing: bool,
    report: PullReport,
    retry_state: Optional[RetryState],
) -> tuple[int, int]:
    """Reconcile → fetch → commit → retire, for one store.

    Returns ``(rows committed, rows retired)``; everything else is
    accumulated on *report*.
    """
    local = {entry.key: domain.slot(entry) for entry in domain.local()}
    remote = {entry.key: entry for entry in entries}
    to_fetch = remote.keys() - local.keys()
    to_remove = local.keys() - remote.keys()
    report.blobs_skipped += len(remote) - len(to_fetch)
    added = removed = 0
    for key in sorted(to_fetch):
        entry = remote[key]
        table_name = domain.slot(entry)[0]
        try:
            data = _fetch_blob(transport, entry.digest, retry_state, report)
            # Digest-valid bytes the store still refuses are a publisher
            # bug, not a wire fault — re-fetching would hand back the same.
            domain.commit(entry, data)
        except (_FetchFailed, ValueError) as exc:
            logger.warning("skipping %s for %r: %s", domain.label, table_name, exc)
            report.corrupt.append(table_name)
            continue
        report.blobs_fetched += 1
        report.bytes_fetched += len(data)
        added += 1
    if remove_missing:
        # A changed row whose slot the snapshot still claims (a table under
        # a new content hash) was replaced — or, if its fetch failed, kept —
        # by the loop above; only slots absent from the snapshot are dropped.
        claimed = {domain.slot(entry) for entry in entries}
        for key in sorted(to_remove):
            if local[key] not in claimed and domain.retire(*local[key]):
                removed += 1
    return added, removed
