"""`lake verify`: cross-check manifest ↔ blobs ↔ sketch/prepared stores.

Replication multiplies the places state can rot: the artifact's blobs, its
manifest, the replica's SQLite files, and the rows inside them.  Verify
walks all four levels and — with ``repair=True`` — fixes what it can by
the cheapest sufficient means:

* **SQLite file soundness** — ``PRAGMA integrity_check`` on both stores
  (page corruption; not repairable in place, only reportable);
* **sketch row decode** — every table's sketch bytes are decoded; a
  row that no longer parses is repaired by re-sketching from its recorded
  ``source_path`` CSV (publisher) or by a targeted re-pull (replica with
  an artifact);
* **prepared consistency** — every prepared row is decoded; a row the
  codec refuses, or whose decoded fingerprint or table name disagrees with
  its key, would be discarded by the first query that reads it, and repair
  deletes it.  Rows whose ``(table, content hash)`` no longer matches the
  sketch store are dead weight (warm lookups key on the build hash); repair
  prunes them;
* **artifact cross-check** — every blob the manifest references is
  re-hashed (absent/corrupt blobs are a *publisher-side* finding: pullers
  already refuse them), and every manifest key is checked against the
  local stores; missing keys are repaired with a targeted
  :func:`~repro.artifacts.sync.pull_snapshot` (delta reconciliation makes
  the pull fetch exactly the missing blobs).

Verification only *reads* through the ordinary store APIs; repair writes
through the same single-writer paths as build and pull, so a serving
daemon's generation probe sees repairs as ordinary writer cycles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.artifacts.blobs import blob_digest
from repro.artifacts.manifest import Manifest, PreparedEntry, TableEntry
from repro.artifacts.sync import pull_snapshot
from repro.artifacts.transport import (
    ArtifactTransport,
    LocalTransport,
    RetryPolicy,
    TransportError,
)
from repro.data.csv_io import read_csv
from repro.discovery.prepared import PreparedStore
from repro.lake.store import SketchStore
from repro.telemetry import recorder as telemetry

__all__ = ["VerifyReport", "verify_lake"]

logger = logging.getLogger(__name__)


@dataclass
class VerifyReport:
    """Findings (and repairs) of one :func:`verify_lake` run."""

    #: ``PRAGMA integrity_check`` complaints keyed by store label.
    sqlite_findings: dict = field(default_factory=dict)
    #: Tables whose stored sketch no longer decodes.
    bad_sketches: list[str] = field(default_factory=list)
    #: Prepared rows keyed to a table/hash the sketch store no longer has.
    stale_prepared: int = 0
    #: Current-format prepared rows that do not decode to their own key.
    undecodable_prepared: int = 0
    #: Artifact-side findings: referenced blobs absent or failing their
    #: digest, and manifest keys missing from the local stores.
    missing_blobs: list[str] = field(default_factory=list)
    corrupt_blobs: list[str] = field(default_factory=list)
    missing_entries: list[str] = field(default_factory=list)
    #: Repair outcomes (zero unless ``repair=True``); ``pruned_prepared``
    #: counts stale and undecodable prepared rows deleted.
    resketched: int = 0
    pruned_prepared: int = 0
    repulled: int = 0
    #: Findings repair could not fix (still broken after the attempt).
    unrepaired: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing is (or remains) wrong."""
        return not (
            self.sqlite_findings
            or self.bad_sketches
            or self.stale_prepared
            or self.undecodable_prepared
            or self.missing_blobs
            or self.corrupt_blobs
            or self.missing_entries
        )

    @property
    def healthy_after_repair(self) -> bool:
        """True when every finding was repaired (or there were none)."""
        return self.clean or (
            not self.sqlite_findings
            and not self.missing_blobs
            and not self.corrupt_blobs
            and not self.unrepaired
        )


def verify_lake(
    store: SketchStore,
    prepared_store: Optional[PreparedStore] = None,
    source: Union[str, Path, ArtifactTransport, None] = None,
    repair: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> VerifyReport:
    """Inspect (and optionally repair) a lake's stores.

    Parameters
    ----------
    store / prepared_store:
        The stores to check.  Repairs write through their ordinary APIs,
        so *store* must be opened writable when ``repair=True``.
    source:
        Optional snapshot artifact (path or transport) to cross-check
        against — and to re-pull missing/broken entries from on repair.
    repair:
        Attempt fixes: re-sketch undecodable tables from their recorded
        CSVs, delete undecodable and stale prepared rows, re-pull entries
        the artifact has but the stores lack.
    retry:
        Forwarded to the repair pull.
    """
    report = VerifyReport()
    with telemetry.span("lake.verify", store=store.path):
        _check_sqlite(store, prepared_store, report)
        _check_sketches(store, report)
        if prepared_store is not None:
            report.stale_prepared = len(_stale_prepared(store, prepared_store))
            report.undecodable_prepared = len(prepared_store.undecodable_keys())
        transport: Optional[ArtifactTransport] = None
        if source is not None:
            transport = (
                source
                if isinstance(source, ArtifactTransport)
                else LocalTransport(source)
            )
            _check_artifact(transport, store, prepared_store, report)
        if repair:
            _repair(store, prepared_store, transport, retry, report)
    telemetry.count("verify.runs")
    telemetry.count("verify.bad_sketches", len(report.bad_sketches))
    telemetry.count("verify.stale_prepared", report.stale_prepared)
    telemetry.count("verify.undecodable_prepared", report.undecodable_prepared)
    return report


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #


def _check_sqlite(
    store: SketchStore, prepared_store: Optional[PreparedStore], report: VerifyReport
) -> None:
    findings = store.integrity_check()
    if findings:
        report.sqlite_findings["sketch_store"] = findings
    if prepared_store is not None:
        findings = prepared_store.integrity_check()
        if findings:
            report.sqlite_findings["prepared_store"] = findings


def _check_sketches(store: SketchStore, report: VerifyReport) -> None:
    # Point reads, not __iter__: one undecodable row must not mask the rest.
    for name in store.table_names:
        try:
            store.get(name)
        except ValueError as exc:
            logger.warning("verify: %s", exc)
            report.bad_sketches.append(name)


def _stale_prepared(
    store: SketchStore, prepared_store: PreparedStore
) -> list[tuple[str, str, str]]:
    """Prepared rows keyed to a table / content hash the sketch store lacks."""
    current = dict(store.raw_keys())
    return [
        (fingerprint, name, content_hash)
        for fingerprint, name, content_hash, _fmt in prepared_store.raw_keys()
        if current.get(name) != content_hash
    ]


def _check_artifact(
    transport: ArtifactTransport,
    store: SketchStore,
    prepared_store: Optional[PreparedStore],
    report: VerifyReport,
) -> None:
    manifest = Manifest.from_bytes(transport.read_manifest(), transport.describe())
    for entry in manifest.tables + manifest.prepared:
        try:
            data = transport.read_blob(entry.digest)
        except KeyError:
            report.missing_blobs.append(entry.digest)
            continue
        except (TransportError, OSError) as exc:
            logger.warning("verify: blob %s unreadable (%s)", entry.digest[:12], exc)
            report.missing_blobs.append(entry.digest)
            continue
        if blob_digest(data) != entry.digest:
            report.corrupt_blobs.append(entry.digest)
    local_keys = {TableEntry(*row).key for row in store.raw_keys()}
    remote_entries = list(manifest.tables)
    if prepared_store is not None:
        local_keys |= {PreparedEntry(*row).key for row in prepared_store.raw_keys()}
        remote_entries += manifest.prepared
    report.missing_entries += [
        entry.key for entry in remote_entries if entry.key not in local_keys
    ]


# ---------------------------------------------------------------------- #
# repair
# ---------------------------------------------------------------------- #


def _repair(
    store: SketchStore,
    prepared_store: Optional[PreparedStore],
    transport: Optional[ArtifactTransport],
    retry: Optional[RetryPolicy],
    report: VerifyReport,
) -> None:
    for name in report.bad_sketches:
        source_path = store.source_path(name)
        resketched = False
        if source_path is not None and Path(source_path).is_file():
            try:
                table = read_csv(source_path, name=name)
            except (OSError, ValueError) as exc:
                logger.warning(
                    "verify: cannot re-sketch %r from %s (%s)", name, source_path, exc
                )
            else:
                # The stored hash still matches the CSV, so add_table would
                # cache-hit on the broken row; drop it first.
                store.remove_table(name)
                store.add_table(table, source_path=source_path)
                report.resketched += 1
                resketched = True
        if not resketched:
            if transport is not None:
                # No readable CSV: retire the broken row and let the pull
                # below re-fetch the table from the artifact (the pull's
                # key reconciliation sees the gap and refetches exactly it).
                store.remove_table(name)
            else:
                report.unrepaired.append(name)
    if prepared_store is not None and report.undecodable_prepared:
        for row in prepared_store.undecodable_keys():
            report.pruned_prepared += prepared_store.remove_raw(*row)
    if prepared_store is not None and report.stale_prepared:
        for row in _stale_prepared(store, prepared_store):
            report.pruned_prepared += prepared_store.remove_raw(*row)
    if transport is not None and (report.missing_entries or report.bad_sketches):
        # Targeted re-pull: reconciliation fetches exactly what's missing.
        # keep local extras — verify repairs, it does not retire tables
        pulled = pull_snapshot(
            transport,
            store,
            prepared_store=prepared_store,
            remove_missing=False,
            retry=retry,
        )
        report.repulled = pulled.tables_added + pulled.prepared_added
        if pulled.corrupt:
            report.unrepaired.extend(pulled.corrupt)
    telemetry.count("verify.repairs", report.resketched + report.repulled)
