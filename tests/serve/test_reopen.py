"""Live store reopen under traffic, with a real writer in another process.

The writer is the actual ``lake build`` CLI run via ``subprocess`` — the
same multi-process WAL situation a deployed daemon faces — while client
threads keep querying.  Contract: no in-flight or subsequent query fails,
and the daemon picks up the new generation (new table visible) without a
restart.  And ``/healthz`` never reports the new generation next to the
old reopen count, however long the old session takes to close.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher
from repro.serve import DiscoveryServer, ServeClient, ServeConfig
from repro.serve import server as server_module

_METHOD = "jaccardlevenshtein"


def _run_lake_build(lake_dir: Path, store_path: Path) -> None:
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "lake",
            "build",
            str(lake_dir),
            "--store",
            str(store_path),
        ],
        check=True,
        env=env,
        capture_output=True,
        timeout=300,
    )


@pytest.mark.slow
class TestReopenUnderTraffic:
    def test_writer_cycle_swaps_generation_without_dropping_queries(self, tmp_path):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(4):
            table = tpcdi_prospect_table(num_rows=14, seed=20 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"{table.name}.csv")
        store_path = tmp_path / "lake.sketches"
        with SketchStore(store_path) as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                prepare_lake(store, prepared_store, create_matcher(_METHOD))
        query = tpcdi_prospect_table(num_rows=14, seed=77).rename("q")

        config = ServeConfig(
            store_path=store_path,
            method=_METHOD,
            reopen_poll_s=0.05,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            stop = threading.Event()
            failures: list = []
            queries_done = [0]

            def hammer():
                with ServeClient(host=host, port=port, timeout_s=60) as client:
                    while not stop.is_set():
                        try:
                            response = client.query(query, top_k=10)
                        except Exception as exc:  # any failure is a test failure
                            failures.append(exc)
                            return
                        if not response["results"]:
                            failures.append(AssertionError("empty ranking"))
                            return
                        queries_done[0] += 1

            workers = [threading.Thread(target=hammer) for _ in range(3)]
            for worker in workers:
                worker.start()
            try:
                # The writer cycles in a separate *process* while traffic flows.
                write_csv(
                    tpcdi_prospect_table(num_rows=14, seed=24).rename("t4"),
                    lake_dir / "t4.csv",
                )
                _run_lake_build(lake_dir, store_path)
                deadline = time.monotonic() + 60
                with ServeClient(host=host, port=port, timeout_s=60) as client:
                    while time.monotonic() < deadline:
                        if client.healthz()["tables"] == 5:
                            break
                        time.sleep(0.05)
                    health = client.healthz()
            finally:
                stop.set()
                for worker in workers:
                    worker.join(timeout=60)
            assert not failures, failures[:3]
            assert queries_done[0] > 0
            assert health["tables"] == 5  # new generation is live
            assert health["reopen_count"] >= 1
            # And the new table is actually rankable.
            with ServeClient(host=host, port=port, timeout_s=60) as client:
                response = client.query(query, top_k=10)
            assert "t4" in {r["table_name"] for r in response["results"]}


class TestReopenHealth:
    def test_health_never_pairs_the_new_generation_with_the_old_count(
        self, tmp_path, monkeypatch
    ):
        """The old session's close is held open: meanwhile the daemon serves
        the new generation, and its health says so with the count moved.
        At the parent the count moved only after the close returned."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(2):
            table = tpcdi_prospect_table(num_rows=10, seed=60 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"{table.name}.csv")
        store_path = tmp_path / "lake.sketches"
        with SketchStore(store_path) as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                prepare_lake(store, prepared_store, create_matcher(_METHOD))
        closing, release = threading.Event(), threading.Event()
        real_close = server_module._EngineSession.close

        def held_close(session):
            closing.set()
            release.wait(timeout=30)
            real_close(session)

        monkeypatch.setattr(server_module._EngineSession, "close", held_close)
        config = ServeConfig(store_path=store_path, method=_METHOD, reopen_poll_s=0.05)
        with DiscoveryServer(config) as daemon:
            try:
                before = daemon.health()
                assert (before["tables"], before["reopen_count"]) == (2, 0)
                with SketchStore(store_path) as store:
                    store.add_table(tpcdi_prospect_table(num_rows=10, seed=62).rename("t2"))
                assert closing.wait(timeout=30), "the daemon never reopened"
                during = daemon.health()
            finally:
                release.set()
        assert (during["tables"], during["reopen_count"]) == (3, 1)
