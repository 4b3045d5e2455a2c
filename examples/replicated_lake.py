#!/usr/bin/env python3
"""Replicated discovery: one writer, content-addressed snapshots, live replicas.

A lake has a single writer — the machine where the CSVs land — but queries
want to run elsewhere.  PR 8 adds ``repro.artifacts``: the publisher exports
its sketch + prepared stores as a content-addressed snapshot (``lake
publish``), replicas sync from it (``lake pull``), and a directory watcher
(``lake watch``) keeps the publisher's stores current without rebuilding the
world.  This example drives the whole topology in one process:

* watch a CSV directory: the first poll sketches + prepares everything and
  publishes a snapshot;
* bootstrap a replica with a full pull — the replica never sees a CSV, yet
  serves warm-path queries through a :class:`~repro.serve.DiscoveryServer`;
* change one CSV and poll again: one table re-sketched, one stale prepared
  payload pruned, the snapshot republished in place (atomic manifest swap);
* pull the delta: the replica compares the manifest's entry keys with its
  own, and reads only the blobs of the entries it lacks;
* the running daemon notices the bumped store generation and serves the new
  snapshot live — same connection, no restart.

Run with ``python examples/replicated_lake.py``.  The equivalent production
shape from a shell:

    # publisher box
    lake watch ./incoming --store lake.sketches \\
        --prepare jaccardlevenshtein --publish /srv/snapshot
    # each replica box
    lake pull /srv/snapshot --store replica.sketches   # cron / systemd timer
    lake serve --store replica.sketches --port 8642 &
"""

from __future__ import annotations

import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.artifacts import LakeWatcher, pull_snapshot
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore
from repro.matchers.registry import create_matcher
from repro.serve import DiscoveryServer, ServeClient, ServeConfig

METHOD = "jaccardlevenshtein"
METHOD_KWARGS = {"sample_size": 20}


def main() -> None:
    with TemporaryDirectory(prefix="replicated_lake_") as tmp:
        workdir = Path(tmp)
        incoming = workdir / "incoming"
        incoming.mkdir()
        for i in range(6):
            table = tpcdi_prospect_table(num_rows=20, seed=50 + i)
            write_csv(table.rename(f"candidate_{i}"), incoming / f"candidate_{i}.csv")

        # ------------------------------------------------------------------
        # Publisher: watch the directory, prepare the warm path, publish.
        # ------------------------------------------------------------------
        artifact = workdir / "snapshot"
        store = SketchStore(workdir / "publisher.sketches")
        prepared = PreparedStore(workdir / "publisher.sketches.prepared")
        watcher = LakeWatcher(
            store,
            incoming,
            prepared_store=prepared,
            matcher=create_matcher(METHOD, **METHOD_KWARGS),
            publish_dir=artifact,
        )
        report = watcher.poll_once()
        assert report.publish is not None
        print(
            f"publisher: first poll sketched {report.sketched} tables, "
            f"prepared {report.prepared}, published snapshot "
            f"{report.publish.snapshot_id[:12]}… "
            f"({report.publish.blobs_written} blobs)"
        )

        # ------------------------------------------------------------------
        # Replica: bootstrap entirely from the artifact — no CSVs here.
        # ------------------------------------------------------------------
        replica_path = workdir / "replica.sketches"
        with SketchStore(replica_path) as replica, PreparedStore(
            workdir / "replica.sketches.prepared"
        ) as replica_prepared:
            full = pull_snapshot(artifact, replica, prepared_store=replica_prepared)
        print(
            f"replica:   full pull fetched {full.blobs_fetched} blobs "
            f"({full.bytes_fetched:,} bytes), {full.tables_added} tables"
        )

        query = tpcdi_prospect_table(num_rows=20, seed=7).rename("q")
        config = ServeConfig(
            store_path=replica_path,
            method=METHOD,
            method_kwargs=METHOD_KWARGS,
            reopen_poll_s=0.05,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=120) as client:
                baseline = client.query(query, top_k=3)
                names = [r["table_name"] for r in baseline["results"]]
                print(f"replica:   daemon ranks {names} without ever reading a CSV\n")

                # ----------------------------------------------------------
                # The lake moves: one CSV changes, the watcher folds it in
                # and republishes; the replica pulls only the delta.
                # ----------------------------------------------------------
                changed = tpcdi_prospect_table(num_rows=28, seed=999)
                write_csv(changed.rename("candidate_0"), incoming / "candidate_0.csv")
                report = watcher.poll_once()
                print(
                    f"publisher: poll re-sketched {report.sketched} table, "
                    f"re-prepared {report.prepared}, pruned "
                    f"{report.stale_pruned} stale payload, republished"
                )

                with SketchStore(replica_path) as replica, PreparedStore(
                    workdir / "replica.sketches.prepared"
                ) as replica_prepared:
                    delta = pull_snapshot(
                        artifact, replica, prepared_store=replica_prepared
                    )
                # candidate_0's sketch and prepared payload; the other five
                # tables' two blobs each are already held.
                assert delta.blobs_fetched == 2 and delta.blobs_skipped == 10
                print(
                    f"replica:   delta pull fetched {delta.blobs_fetched} blobs "
                    f"({delta.bytes_fetched:,} bytes) — "
                    f"{delta.blobs_skipped} already held"
                )

                # The daemon reopens live: same connection, new snapshot.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.healthz()["reopen_count"] >= 1:
                        break
                    time.sleep(0.05)
                health = client.healthz()
                assert health["reopen_count"] >= 1
                response = client.query(query, top_k=3)
                print(
                    "replica:   daemon reopened live "
                    f"(reopen_count={health['reopen_count']}), new ranking "
                    f"{[r['table_name'] for r in response['results']]}"
                )

        prepared.close()
        store.close()


if __name__ == "__main__":
    main()
