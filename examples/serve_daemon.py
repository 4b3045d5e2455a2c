#!/usr/bin/env python3
"""Long-lived discovery serving: a daemon, concurrent clients, back-pressure.

One-shot ``lake query`` pays the store-open and matcher-construction cost on
every invocation.  For interactive discovery — many query tables arriving
concurrently against the same lake — PR 7 adds ``lake serve``: a daemon that
keeps one warm :class:`~repro.lake.LakeDiscoveryEngine` alive behind an HTTP front end with admission control.  This example drives
the whole loop in-process:

* build a small lake and prepare it for the two-phase warm path;
* start a :class:`~repro.serve.DiscoveryServer` on a loopback port (exactly
  what ``lake serve --store ...`` does);
* hammer it from several client threads via :class:`~repro.serve.ServeClient`
  — identical queries in flight together are coalesced into one rerank;
* show back-pressure: a tiny admission queue sheds a burst with HTTP 429
  (``QueueFullError``) instead of hanging;
* read the merged telemetry from ``/stats``.

Run with ``python examples/serve_daemon.py``.  The equivalent production
shape from a shell:

    lake build ./lake_dir --store lake.sketches
    lake prepare comaschema --store lake.sketches
    lake serve --store lake.sketches --port 8642 &
    # then POST query tables to http://127.0.0.1:8642/query
"""

from __future__ import annotations

import threading
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.data.csv_io import write_csv
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.matchers.registry import create_matcher
from repro.serve.client import QueueFullError, ServeClient
from repro.serve.server import DiscoveryServer, ServeConfig

METHOD = "jaccardlevenshtein"


def build_lake(workdir: Path) -> Path:
    """A small on-disk lake, sketched and prepared for the warm path."""
    lake_dir = workdir / "lake"
    lake_dir.mkdir()
    for i in range(8):
        table = tpcdi_prospect_table(num_rows=24, seed=40 + i)
        write_csv(table.rename(f"candidate_{i}"), lake_dir / f"candidate_{i}.csv")
    store_path = workdir / "lake.sketches"
    with SketchStore(store_path) as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(workdir / "lake.sketches.prepared") as prepared:
            prepare_lake(store, prepared, create_matcher(METHOD))
    return store_path


def concurrent_clients(host: str, port: int) -> None:
    query = tpcdi_prospect_table(num_rows=24, seed=7).rename("q_shared")
    rankings: list[list[str]] = []
    lock = threading.Lock()

    def one_client() -> None:
        # One ServeClient per thread (the client is not thread-safe).
        with ServeClient(host=host, port=port, timeout_s=120) as client:
            response = client.query(query, mode="joinable", top_k=3)
            with lock:
                rankings.append([r["table_name"] for r in response["results"]])

    threads = [threading.Thread(target=one_client) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(r == rankings[0] for r in rankings)
    print(f"6 concurrent clients, identical ranking: {rankings[0]}")


def burst_against_tiny_queue(store_path: Path) -> None:
    config = ServeConfig(
        store_path=store_path,
        method=METHOD,
        queue_limit=1,  # deliberately tiny: force load shedding
    )
    served, rejected = 0, 0
    lock = threading.Lock()
    # Distinct queries: identical ones would be coalesced onto the ticket
    # already in flight and take no queue seat at all.
    queries = [
        tpcdi_prospect_table(num_rows=24, seed=200 + i).rename(f"burst_{i}")
        for i in range(8)
    ]
    with DiscoveryServer(config) as daemon:
        host, port = daemon.address

        def burst(i: int) -> None:
            nonlocal served, rejected
            try:
                with ServeClient(host=host, port=port, timeout_s=60) as client:
                    client.query(queries[i], top_k=3)
                with lock:
                    served += 1
            except QueueFullError:
                with lock:
                    rejected += 1

        threads = [threading.Thread(target=burst, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    print(
        f"burst of 8 vs queue of 1: {served} served, {rejected} rejected with "
        "HTTP 429 (overload sheds load, it does not wedge)"
    )


def main() -> None:
    with TemporaryDirectory(prefix="serve_example_") as tmp:
        workdir = Path(tmp)
        store_path = build_lake(workdir)
        print(f"Lake ready at {store_path.name} (8 tables, prepared)\n")

        config = ServeConfig(
            store_path=store_path,
            method=METHOD,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            print(f"Daemon serving on http://{host}:{port}")

            with ServeClient(host=host, port=port, timeout_s=120) as client:
                health = client.healthz()
                print(f"/healthz: {health['tables']} tables, generation live\n")

            concurrent_clients(host, port)

            with ServeClient(host=host, port=port, timeout_s=120) as client:
                stats = client.stats()
            admitted = stats["counters"].get("serve.admitted", 0)
            serve = stats["serve"]
            print(f"/stats: {admitted} admitted, {serve['coalesced']} coalesced")

        print()
        burst_against_tiny_queue(store_path)


if __name__ == "__main__":
    main()
