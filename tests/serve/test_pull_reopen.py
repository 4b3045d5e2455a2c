"""Replica topology end to end: publish → pull → live daemon reopen.

The PR 8 acceptance scenario: a ``lake serve`` daemon runs on a *replica*
store that was populated purely by ``lake pull``.  The publisher re-builds
and re-publishes its snapshot; a second pull — run as the actual CLI in a
separate process, the deployed single-writer situation — commits the delta
through the ordinary store APIs, which bumps the store generation, which
the daemon's reopen probe picks up without a restart.  The new table must
become rankable over the same connection clients already hold.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.artifacts.sync import publish_snapshot, pull_snapshot
from repro.data.csv_io import write_csv
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.matchers.registry import create_matcher
from repro.serve.client import ServeClient
from repro.serve.server import DiscoveryServer, ServeConfig

_METHOD = "jaccardlevenshtein"
_METHOD_KWARGS = {"sample_size": 20}


def _run_cli(*args: str) -> None:
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        check=True,
        env=env,
        capture_output=True,
        timeout=300,
    )


def _publish(tmp_path: Path, lake_dir: Path, artifact: Path) -> None:
    with SketchStore(tmp_path / "publisher.sketches") as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(tmp_path / "publisher.sketches.prepared") as prepared:
            prepare_lake(store, prepared, create_matcher(_METHOD, **_METHOD_KWARGS))
            publish_snapshot(store, artifact, prepared_store=prepared)


@pytest.mark.slow
class TestPullTriggersLiveReopen:
    def test_daemon_serves_new_snapshot_after_pull_without_restart(self, tmp_path):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(4):
            table = tpcdi_prospect_table(num_rows=14, seed=20 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"{table.name}.csv")
        artifact = tmp_path / "artifact"
        _publish(tmp_path, lake_dir, artifact)

        # Replica bootstrap: stores populated by pull alone, no CSVs.
        replica_store_path = tmp_path / "replica.sketches"
        with SketchStore(replica_store_path) as replica, PreparedStore(
            tmp_path / "replica.sketches.prepared"
        ) as replica_prepared:
            report = pull_snapshot(artifact, replica, prepared_store=replica_prepared)
            assert report.tables_added == 4

        query = tpcdi_prospect_table(num_rows=14, seed=77).rename("q")
        config = ServeConfig(
            store_path=replica_store_path,
            method=_METHOD,
            method_kwargs=_METHOD_KWARGS,
            reopen_poll_s=0.05,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=60) as client:
                assert client.healthz()["tables"] == 4
                baseline = client.query(query, top_k=10)
                assert {r["table_name"] for r in baseline["results"]} == {
                    "t0",
                    "t1",
                    "t2",
                    "t3",
                }

                # Publisher moves on: new table, re-publish, replica pulls —
                # the pull is the real CLI in its own process.
                write_csv(
                    tpcdi_prospect_table(num_rows=14, seed=24).rename("t4"),
                    lake_dir / "t4.csv",
                )
                _publish(tmp_path, lake_dir, artifact)
                _run_cli(
                    "lake",
                    "pull",
                    str(artifact),
                    "--store",
                    str(replica_store_path),
                )

                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if client.healthz()["tables"] == 5:
                        break
                    time.sleep(0.05)
                health = client.healthz()
                assert health["tables"] == 5  # new snapshot is live
                assert health["reopen_count"] >= 1
                # Same connection, no restart: the pulled table is rankable.
                response = client.query(query, top_k=10)
                assert "t4" in {r["table_name"] for r in response["results"]}
