"""Chaos: the serve daemon under injected transient failures.

The no-500 contract: whatever breaks inside a query, a client sees only 200
(answered), 429 (queue full) or 503 (transient server condition with a
Retry-After hint) — never a 500 — and the next query is answered.

The daemon scores inline on its dispatcher thread, so a failure is injected
where every query passes: ``serve.score_batch``, as the SQLite error a store
locked by another process raises.
"""

from __future__ import annotations

import http.client
import json
import sqlite3

import pytest

from repro.data.csv_io import write_csv
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.faults.plan import FaultPlan, FaultSpec
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.matchers.registry import create_matcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import DiscoveryServer, ServeConfig
from repro.serve.protocol import encode_query_request

_METHOD = "jaccardlevenshtein"
_NUM_TABLES = 3


def _locked(**kwargs) -> FaultSpec:
    """A transient failure at ``serve.score_batch``: a locked store."""
    return FaultSpec(
        "serve.score_batch",
        "error",
        error=sqlite3.OperationalError("database is locked"),
        **kwargs,
    )


@pytest.fixture(scope="module")
def serve_lake(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("chaos_serve")
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(_NUM_TABLES):
        table = tpcdi_prospect_table(num_rows=14, seed=80 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    store_path = tmp_path / "lake.sketches"
    with SketchStore(store_path) as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(
            store_path.with_name(store_path.name + ".prepared")
        ) as prepared_store:
            prepare_lake(store, prepared_store, create_matcher(_METHOD))
    query = tpcdi_prospect_table(num_rows=14, seed=99).rename("query_table")
    return store_path, query


def _config(store_path, plan):
    return ServeConfig(store_path=store_path, method=_METHOD, fault_plan=plan)


def _post_query(daemon, query):
    """One raw ``/query``: (status, Retry-After header, payload)."""
    host, port = daemon.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/query", body=encode_query_request(query, top_k=1))
        response = connection.getresponse()
        return response.status, response.getheader("Retry-After"), json.loads(response.read())
    finally:
        connection.close()


class TestNoFiveHundred:
    def test_transient_failure_answers_503_and_the_next_query_200(self, serve_lake):
        """The failed query is told to retry (503 + Retry-After), never shown
        a 500; the next query is answered, the daemon stays ``ok`` and the
        failure is counted."""
        store_path, query = serve_lake
        with DiscoveryServer(_config(store_path, FaultPlan([_locked(times=1)]))) as daemon:
            status, retry_after, payload = _post_query(daemon, query)
            assert status == 503
            assert retry_after == "1"
            assert payload["error"] == "unavailable"
            assert "database is locked" in payload["detail"]
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=30) as client:
                response = client.query(query, top_k=_NUM_TABLES)
                assert len(response["results"]) == _NUM_TABLES
                assert client.healthz()["status"] == "ok"
                assert client.stats()["counters"]["serve.errors"] == 1

    def test_status_sweep_under_transient_failures(self, serve_lake):
        """A seeded 50%-failure plan over a dozen queries: every answer is
        200 or 503; the daemon never wedges and never answers 500."""
        store_path, query = serve_lake
        plan = FaultPlan([_locked(probability=0.5)], seed=6)
        statuses = []
        with DiscoveryServer(_config(store_path, plan)) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=30) as client:
                for _ in range(12):
                    try:
                        client.query(query, top_k=1)
                        statuses.append(200)
                    except ServeError as exc:
                        statuses.append(exc.status)
                assert client.healthz()["status"] == "ok"
                errors = client.stats()["counters"]["serve.errors"]
        assert set(statuses) <= {200, 503}
        assert 200 in statuses and 503 in statuses  # the plan really fired
        assert errors == statuses.count(503)


class TestHealth:
    def test_unstarted_daemon_reports_starting(self, serve_lake):
        store_path, _query = serve_lake
        daemon = DiscoveryServer(_config(store_path, None))
        assert daemon.health_status() == "starting"
        assert daemon.health()["status"] == "starting"

    def test_consecutive_failures_leave_health_ok(self, serve_lake):
        """Three failed queries in a row: each is its own 503, /healthz
        answers ``ok`` after every one, and the fourth query is answered."""
        store_path, query = serve_lake
        with DiscoveryServer(_config(store_path, FaultPlan([_locked(times=3)]))) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=30) as client:
                for _ in range(3):
                    with pytest.raises(ServeError) as excinfo:
                        client.query(query, top_k=1)
                    assert excinfo.value.status == 503
                    assert client.healthz()["status"] == "ok"
                assert client.query(query, top_k=1)["results"]
                assert client.stats()["counters"]["serve.errors"] == 3


@pytest.mark.slow
class TestEndToEndChaos:
    def test_publisher_replica_daemon_pipeline(self, tmp_path):
        """The whole distribution path under one seeded fault plan: publish,
        chaos-pull (30%+ failures, one crash mid-pull, resumed), then serve
        the replica under an injected transient failure — and the daemon's
        answers are exactly the publisher's."""
        from repro.artifacts.sync import publish_snapshot, pull_snapshot
        from repro.artifacts.transport import FaultyTransport, LocalTransport, RetryPolicy
        from repro.faults.plan import InjectedCrash
        from repro.lake.engine import LakeDiscoveryEngine

        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(_NUM_TABLES):
            table = tpcdi_prospect_table(num_rows=14, seed=80 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"{table.name}.csv")
        query = tpcdi_prospect_table(num_rows=14, seed=99).rename("query_table")
        matcher = create_matcher(_METHOD)
        artifact = tmp_path / "artifact"
        pub_store = SketchStore(tmp_path / "pub.sketches")
        build_from_paths(pub_store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(tmp_path / "pub.prepared") as pub_prepared:
            prepare_lake(pub_store, pub_prepared, matcher)
            publish_snapshot(pub_store, artifact, prepared_store=pub_prepared)
            with LakeDiscoveryEngine(
                matcher=matcher, store=pub_store, prepared_store=pub_prepared
            ) as engine:
                expected = [
                    (r.table_name, r.joinability, r.unionability)
                    for r in engine.query(query, mode="joinable", top_k=_NUM_TABLES)
                ]
        pub_store.close()

        # Chaos pull: flaky transport, then a crash, then a resumed pull.
        retry = RetryPolicy(
            max_attempts=8,
            base_delay_s=0.0,
            max_delay_s=0.0,
            budget=10_000,
            sleep=lambda _s: None,
            seed=0,
        )
        plan = FaultPlan(
            [
                FaultSpec("transport.read_blob", "error", probability=0.3),
                FaultSpec("transport.read_blob", "corrupt", times=1),
                FaultSpec("transport.read_blob", "crash", after=3, times=1),
            ],
            seed=9,
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        replica_path = tmp_path / "replica.sketches"
        prepared_path = tmp_path / "replica.sketches.prepared"
        with SketchStore(replica_path) as replica, PreparedStore(
            prepared_path
        ) as replica_prepared:
            with pytest.raises(InjectedCrash):
                pull_snapshot(
                    transport, replica, prepared_store=replica_prepared, retry=retry
                )
        with SketchStore(replica_path) as replica, PreparedStore(
            prepared_path
        ) as replica_prepared:
            report = pull_snapshot(
                transport, replica, prepared_store=replica_prepared, retry=retry
            )
            assert not report.corrupt and report.blobs_skipped > 0

        # Serve the replica under an injected transient failure: the first
        # query is told to retry, the retry is correct.
        config = ServeConfig(
            store_path=replica_path,
            method=_METHOD,
            fault_plan=FaultPlan([_locked(times=1)]),
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            with ServeClient(
                host=host, port=port, timeout_s=60, retry_queue_full=True
            ) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.query(query, mode="joinable", top_k=_NUM_TABLES)
                assert excinfo.value.status == 503
                response = client.query(query, mode="joinable", top_k=_NUM_TABLES)
                served = [
                    (r["table_name"], r["joinability"], r["unionability"])
                    for r in response["results"]
                ]
                assert served == expected
                assert client.healthz()["status"] == "ok"
                assert client.stats()["counters"]["serve.errors"] == 1
