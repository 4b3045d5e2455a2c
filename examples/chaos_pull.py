#!/usr/bin/env python3
"""Chaos pull: a replica syncing through a hostile transport, and surviving.

PR 9 hardens the snapshot distribution path against the failures that real
wires and real processes produce: transient read errors, truncated and
bit-flipped payloads, and the pulling process dying mid-sync.  This example
injects all of them — deterministically, from a seeded
:class:`~repro.faults.FaultPlan` — and shows the pull converge anyway:

* a transport where ~30% of blob reads fail outright and some payloads
  arrive torn or bit-flipped: bounded-backoff retries plus digest
  verification re-fetch exactly the broken transfers;
* a crash after a few verified blobs: each row was committed to the store
  before the next blob was fetched, so the next pull reconciles against
  what the store holds and fetches only the uncommitted remainder;
* the result is byte-identical to a clean pull — corruption costs retries,
  never a corrupt store.

Run with ``python examples/chaos_pull.py``.  The equivalent shell shape:

    lake pull /srv/snapshot --store replica.sketches \\
        --retry-attempts 6 --retry-budget 128   # re-run after a crash: resumes
    lake verify --store replica.sketches --artifact /srv/snapshot --repair
"""

from __future__ import annotations

from pathlib import Path
from tempfile import TemporaryDirectory

from repro.artifacts import (
    FaultyTransport,
    LocalTransport,
    RetryPolicy,
    publish_snapshot,
    pull_snapshot,
)
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher

METHOD = "jaccardlevenshtein"
METHOD_KWARGS = {"sample_size": 20}
NUM_TABLES = 8


def main() -> None:
    with TemporaryDirectory(prefix="chaos_pull_") as tmp:
        workdir = Path(tmp)

        # ------------------------------------------------------------------
        # Publisher: build, prepare, publish — the clean side of the wire.
        # ------------------------------------------------------------------
        lake_dir = workdir / "lake"
        lake_dir.mkdir()
        for i in range(NUM_TABLES):
            table = tpcdi_prospect_table(num_rows=20, seed=50 + i)
            write_csv(table.rename(f"candidate_{i}"), lake_dir / f"candidate_{i}.csv")
        artifact = workdir / "snapshot"
        store = SketchStore(workdir / "publisher.sketches")
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(workdir / "publisher.prepared") as prepared:
            prepare_lake(store, prepared, create_matcher(METHOD, **METHOD_KWARGS))
            publish = publish_snapshot(store, artifact, prepared_store=prepared)
        store.close()
        print(
            f"publisher: snapshot {publish.snapshot_id[:12]}… with "
            f"{publish.tables} tables + {publish.prepared} prepared payloads"
        )

        # ------------------------------------------------------------------
        # The hostile wire: ~30% failed reads, torn and flipped payloads,
        # and a crash partway through the blob fetches.  Seeded = reproducible.
        # ------------------------------------------------------------------
        plan = FaultPlan(
            [
                FaultSpec("transport.read_blob", "error", probability=0.3),
                FaultSpec("transport.read_blob", "truncate", times=2),
                FaultSpec("transport.read_blob", "corrupt", times=2),
                FaultSpec("transport.read_blob", "crash", after=10, times=1),
            ],
            seed=7,
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        retry = RetryPolicy(max_attempts=6, base_delay_s=0.001, max_delay_s=0.01)

        replica_path = workdir / "replica.sketches"
        replica_prepared_path = workdir / "replica.prepared"

        # First attempt: the injected crash kills the "process" mid-pull.
        try:
            with SketchStore(replica_path) as replica, PreparedStore(
                replica_prepared_path
            ) as replica_prepared:
                pull_snapshot(
                    transport, replica, prepared_store=replica_prepared, retry=retry
                )
        except InjectedCrash as crash:
            print(f"replica: pull died mid-sync ({crash}) — committed rows stay")

        # Second attempt, same store: reconciliation finds every row the
        # interrupted pull committed and fetches only the rest.
        with SketchStore(replica_path) as replica, PreparedStore(
            replica_prepared_path
        ) as replica_prepared:
            report = pull_snapshot(
                transport, replica, prepared_store=replica_prepared, retry=retry
            )
            table_names = sorted(replica.table_names)
        print(
            f"replica: resumed pull fetched {report.blobs_fetched} blobs, "
            f"skipped {report.blobs_skipped} already-committed, retried "
            f"{report.retries} broken transfers, corrupt entries: "
            f"{len(report.corrupt)}"
        )
        print(f"replica: {len(table_names)} tables, injected faults: {plan.summary()}")
        assert len(table_names) == NUM_TABLES and not report.corrupt
        print("chaos pull converged: every fault cost a retry, never a bad row")


if __name__ == "__main__":
    main()
