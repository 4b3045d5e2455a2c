"""Chaos: the serve daemon under injected rerank-pool breaks.

The no-500 contract from the ISSUE: whatever breaks inside a query, a
client sees only 200 (answered), 429 (queue full) or 503 (transient server
condition with a Retry-After hint) — never a 500 — and the daemon recovers
to ``ok`` once the breaker's trial query succeeds.

Every daemon here is given workers (``max_workers=2``): without them there
is no pool to break and no handler to exercise.  The pool is lazy, so a
query whose first attempt is the injected ``BrokenProcessPool`` is answered
inline and spawns nothing; the recovery test lets a query reach the real
pool because only a successful *pooled* query closes the breaker.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.faults import FaultPlan, FaultSpec
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher
from repro.serve import CircuitBreaker, DiscoveryServer, ServeClient, ServeConfig, ServeError

_METHOD = "jaccardlevenshtein"
_NUM_TABLES = 3


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


def _config(store_path, plan, **overrides):
    defaults = dict(
        store_path=store_path,
        method=_METHOD,
        max_workers=2,
        fault_plan=plan,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestNoFiveHundred:
    def test_single_pool_break_is_absorbed(self, serve_lake):
        """One break per query: restarted pool + serial retry → still 200."""
        store_path, query = serve_lake
        plan = FaultPlan(
            [FaultSpec("serve.score_batch", "error", error=BrokenProcessPool, times=1)]
        )
        with DiscoveryServer(_config(store_path, plan)) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=30) as client:
                response = client.query(query, top_k=_NUM_TABLES)
                assert len(response["results"]) == _NUM_TABLES
                assert daemon.pool_restarts == 1
                stats = client.stats()
                assert stats["counters"]["serve.pool_restarts"] == 1
                assert stats["serve"]["pool_restarts"] == 1
                # One failure < threshold (2): the breaker stayed closed.
                assert client.healthz()["status"] == "ok"

    def test_double_break_answers_503_not_500(self, serve_lake):
        """The query fails even after the restart: the client is told to
        retry (503 + Retry-After), never shown a 500."""
        store_path, query = serve_lake
        plan = FaultPlan(
            [FaultSpec("serve.score_batch", "error", error=BrokenProcessPool, times=2)]
        )
        with DiscoveryServer(_config(store_path, plan)) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=30) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.query(query, top_k=1)
                assert excinfo.value.status == 503
                assert excinfo.value.payload["error"] == "unavailable"
                # The plan's budget is spent: the daemon has already healed.
                response = client.query(query, top_k=1)
                assert response["results"]

    def test_status_sweep_under_flaky_pool(self, serve_lake):
        """A seeded 50%-break plan over a dozen queries: every answer is
        200 or 503; the daemon never wedges and never answers 500."""
        store_path, query = serve_lake
        plan = FaultPlan(
            [
                FaultSpec(
                    "serve.score_batch",
                    "error",
                    error=BrokenProcessPool,
                    probability=0.5,
                )
            ],
            seed=6,
        )
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
        assert set(statuses) <= {200, 503}
        assert 200 in statuses and 503 in statuses  # the plan really fired


class TestBreakerRecovery:
    def test_degraded_then_recovers_to_ok(self, serve_lake):
        """threshold=1: one break opens the breaker (health: degraded, but
        /healthz still answers 200); after the cooldown the trial query
        succeeds on the real pool and health returns to ok."""
        store_path, query = serve_lake
        plan = FaultPlan(
            [FaultSpec("serve.score_batch", "error", error=BrokenProcessPool, times=1)]
        )
        config = _config(
            store_path,
            plan,
            breaker_threshold=1,
            breaker_cooldown_s=0.2,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=60) as client:
                response = client.query(query, top_k=1)
                assert response["results"]  # absorbed serially
                health = client.healthz()
                assert health["status"] == "degraded"
                # Open, or already half-open if the query outran the cooldown.
                assert health["breaker"] in ("open", "half_open")
                time.sleep(0.3)  # past the cooldown: half-open trial allowed
                response = client.query(query, top_k=1)
                assert response["results"]
                assert client.healthz()["status"] == "ok"
                assert daemon.breaker.state == "closed"

    def test_unstarted_daemon_reports_starting(self, serve_lake):
        store_path, _query = serve_lake
        daemon = DiscoveryServer(_config(store_path, None))
        assert daemon.health_status() == "starting"
        assert daemon.health()["status"] == "starting"


@pytest.mark.slow
class TestEndToEndChaos:
    def test_publisher_replica_daemon_pipeline(self, tmp_path):
        """The whole distribution path under one seeded fault plan: publish,
        chaos-pull (30%+ failures, one crash mid-pull, resumed), then serve
        the replica under an injected pool break — and the daemon's answers
        are exactly the publisher's."""
        from repro.artifacts import (
            FaultyTransport,
            LocalTransport,
            RetryPolicy,
            publish_snapshot,
            pull_snapshot,
        )
        from repro.faults import InjectedCrash
        from repro.lake import LakeDiscoveryEngine

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
        prepared_path = tmp_path / "replica.prepared"
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

        # Serve the replica under an injected pool break: still correct.
        serve_plan = FaultPlan(
            [FaultSpec("serve.score_batch", "error", error=BrokenProcessPool, times=1)]
        )
        config = ServeConfig(
            store_path=replica_path,
            prepared_path=prepared_path,
            method=_METHOD,
            max_workers=2,
            fault_plan=serve_plan,
        )
        with DiscoveryServer(config) as daemon:
            host, port = daemon.address
            with ServeClient(
                host=host, port=port, timeout_s=60, retry_queue_full=True
            ) as client:
                response = client.query(query, mode="joinable", top_k=_NUM_TABLES)
                served = [
                    (r["table_name"], r["joinability"], r["unionability"])
                    for r in response["results"]
                ]
                assert served == expected
                assert daemon.pool_restarts == 1
                assert client.healthz()["status"] == "ok"


class TestCircuitBreaker:
    def test_opens_at_threshold_and_cools_down(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=lambda: clock[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # one failure, threshold two
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 10.0
        assert breaker.state == "half_open" and breaker.allow()

    def test_failed_trial_reopens_immediately(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=lambda: clock[0])
        breaker.record_failure()
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.state == "half_open"
        breaker.record_failure()  # one failure re-opens: no threshold refill
        assert breaker.state == "open"
        assert breaker.opened_count == 2

    def test_success_closes_and_resets(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # the reset forgot the first failure
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert snapshot["consecutive_failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)
