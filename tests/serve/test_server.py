"""The daemon end to end: endpoints, identity with the one-shot engine,
in-flight coalescing, and admission control (429 queue-full, 504 deadline
expiry).

The lake is tiny and the daemon scores inline on the dispatcher thread, so
these tests are seconds-scale and deterministic on one CPU.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.data.csv_io import write_csv
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery import search
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.registry import create_matcher
from repro.serve.client import DeadlineExpiredError, QueueFullError, ServeClient
from repro.serve.server import DiscoveryServer, ServeConfig

_METHOD = "jaccardlevenshtein"
_NUM_TABLES = 5


@pytest.fixture(scope="module")
def served_lake(tmp_path_factory):
    """A built + prepared lake and the query table, shared by the module."""
    tmp_path = tmp_path_factory.mktemp("serve_lake")
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(_NUM_TABLES):
        table = tpcdi_prospect_table(num_rows=16, seed=30 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    store_path = tmp_path / "lake.sketches"
    with SketchStore(store_path) as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
            prepare_lake(store, prepared_store, create_matcher(_METHOD))
    query = tpcdi_prospect_table(num_rows=16, seed=99).rename("query_table")
    return store_path, query


def _one_shot_ranking(store_path, query, mode):
    """What ``LakeDiscoveryEngine.query`` answers inline for the same stores."""
    with SketchStore(store_path) as store, PreparedStore(
        store_path.with_name(store_path.name + ".prepared")
    ) as prepared_store, LakeDiscoveryEngine(
        matcher=create_matcher(_METHOD), store=store, prepared_store=prepared_store
    ) as engine:
        direct = engine.query(query, mode=mode, top_k=_NUM_TABLES)
    return [(r.table_name, r.joinability, r.unionability) for r in direct]


@pytest.fixture(scope="module")
def server(served_lake):
    store_path, _ = served_lake
    config = ServeConfig(
        store_path=store_path,
        method=_METHOD,
    )
    with DiscoveryServer(config) as daemon:
        yield daemon


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServeClient(host=host, port=port, timeout_s=30) as serve_client:
        yield serve_client


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["tables"] == _NUM_TABLES
        assert health["generation"] is not None

    def test_query_matches_one_shot_engine_exactly(self, served_lake, client):
        store_path, query = served_lake
        served = client.query(query, mode="joinable", top_k=_NUM_TABLES)
        assert [
            (r["table_name"], r["joinability"], r["unionability"])
            for r in served["results"]
        ] == _one_shot_ranking(store_path, query, "joinable")
        assert served["stats"]["rerank_count"] == _NUM_TABLES
        assert served["stats"]["store_hits"] == _NUM_TABLES  # fully warm

    def test_stats_exposes_counters_and_stage_histograms(self, client, served_lake):
        _, query = served_lake
        client.query(query, top_k=2)
        stats = client.stats()
        assert stats["counters"]["serve.admitted"] >= 1
        assert "serve.request" in stats["stages"]
        assert stats["stages"]["serve.request"]["count"] >= 1
        assert stats["serve"]["queue_limit"] == 32
        assert "query.shortlist" in stats["stages"]

    def test_unknown_path_is_404(self, server):
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/nope")
            assert connection.getresponse().status == 404
        finally:
            connection.close()

    def test_malformed_body_is_400_not_500(self, server):
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("POST", "/query", body=b'{"table": 7}')
            response = connection.getresponse()
            assert response.status == 400
            assert b"bad_request" in response.read()
        finally:
            connection.close()

    def test_non_finite_timeout_is_400_not_an_error(self, server, client, served_lake):
        """``json.loads`` parses ``Infinity``; the door refuses it, so it never
        reaches ``Future.result(timeout=inf)`` (an ``OverflowError``, once
        answered 503 and counted in ``serve.errors``)."""
        import http.client
        import json

        from repro.serve.protocol import encode_query_request

        _, query = served_lake
        payload = json.loads(encode_query_request(query, top_k=2))
        payload["timeout_s"] = float("inf")
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("POST", "/query", body=json.dumps(payload).encode("utf-8"))
            response = connection.getresponse()
            assert response.status == 400
            assert b"timeout_s" in response.read()
        finally:
            connection.close()
        counters = client.stats()["counters"]
        assert counters["serve.bad_requests"] >= 1
        assert counters.get("serve.errors", 0) == 0

    @pytest.mark.parametrize(
        "change",
        [
            {"columns": {"a": [[1], [2]]}},
            {"columns": {"a": [{"x": 1}, {"y": 2}]}},
            {"bogus": 1},
            {"budget_ms": 5},
        ],
        ids=["array-cells", "object-cells", "unknown-field", "stale-budget"],
    )
    def test_unanswerable_body_is_400_not_a_503_to_retry(self, server, client, change):
        """A non-scalar cell once reached ``sketch_table`` (``TypeError:
        unhashable type``) and was answered 503 with ``Retry-After``; an
        unknown field was silently ignored."""
        import http.client
        import json

        payload = {"table": {"name": "q", "columns": {"a": [1, 2]}}, "top_k": 2}
        if "columns" in change:
            payload["table"].update(change)
        else:
            payload.update(change)
        before = client.stats()["counters"].get("serve.bad_requests", 0)
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("POST", "/query", body=json.dumps(payload).encode("utf-8"))
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Retry-After") is None
            assert b"bad_request" in response.read()
        finally:
            connection.close()
        counters = client.stats()["counters"]
        assert counters["serve.bad_requests"] == before + 1
        assert counters.get("serve.errors", 0) == 0


class TestExecutorRule:
    """The daemon scores in its own process — counted, not timed."""

    def test_default_daemon_never_constructs_or_spawns_a_pool(
        self, served_lake, monkeypatch
    ):
        store_path, query = served_lake
        constructed = []
        original = search.RerankPool.__init__

        def counting_init(pool, *args, **kwargs):
            constructed.append(pool)
            original(pool, *args, **kwargs)

        monkeypatch.setattr(search.RerankPool, "__init__", counting_init)
        before = set(multiprocessing.active_children())
        with DiscoveryServer(ServeConfig(store_path=store_path, method=_METHOD)) as daemon:
            host, port = daemon.address
            with ServeClient(host=host, port=port, timeout_s=60) as client:
                client.query(query, mode="joinable", top_k=2)
                response = client.query(query, mode="combined", top_k=_NUM_TABLES)
            children = set(multiprocessing.active_children()) - before
        assert constructed == []
        assert children == set()
        assert [
            (r["table_name"], r["joinability"], r["unionability"])
            for r in response["results"]
        ] == _one_shot_ranking(store_path, query, "combined")


class TestCoalescing:
    def test_identical_concurrent_queries_share_one_score(
        self, served_lake, server
    ):
        _, query = served_lake
        host, port = server.address
        results = [None] * 6
        errors = []

        def go(index):
            try:
                with ServeClient(host=host, port=port, timeout_s=30) as c:
                    results[index] = c.query(query, mode="unionable", top_k=3)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        rankings = {tuple((r["table_name"], r["joinability"]) for r in res["results"]) for res in results}
        assert len(rankings) == 1  # every client saw the same answer


def _distinct_queries(count):
    """Query tables with pairwise different content (hence cache keys)."""
    return [
        tpcdi_prospect_table(num_rows=16, seed=200 + i).rename(f"distinct_{i}")
        for i in range(count)
    ]


class TestAdmissionControl:
    """Back-pressure and in-flight coalescing, driven through real HTTP clients.

    A stalled dispatcher (its ``execute`` blocked on an event we control)
    backs requests up into the bounded queue, which lets the tests observe
    429 rejection, 504 expiry and duplicates joining a ticket that is
    queued or being scored, deterministically.
    """

    @pytest.fixture()
    def stalled_server(self, served_lake):
        store_path, _ = served_lake
        config = ServeConfig(
            store_path=store_path,
            method=_METHOD,
            queue_limit=1,
        )
        daemon = DiscoveryServer(config)
        release = threading.Event()
        entered = threading.Event()
        original = daemon.dispatcher.execute
        daemon.executed = []

        def stalling_execute(request):
            daemon.executed.append(request.table.name)
            entered.set()
            assert release.wait(timeout=30), "test forgot to release the dispatcher"
            return original(request)

        daemon.dispatcher.execute = stalling_execute
        with daemon:
            yield daemon, entered, release
        release.set()

    @staticmethod
    def _ask_in_background(daemon, outcomes, tag, query, **params):
        host, port = daemon.address

        def run():
            try:
                with ServeClient(host=host, port=port, timeout_s=60) as c:
                    outcomes[tag] = c.query(query, top_k=2, **params)
            except Exception as exc:
                outcomes[tag] = exc

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    @staticmethod
    def _wait_until(condition, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert condition()

    def test_queue_full_is_rejected_with_429_not_hung(self, stalled_server):
        first_query, second_query, third_query = _distinct_queries(3)
        daemon, entered, release = stalled_server
        host, port = daemon.address
        outcomes: dict = {}
        # First request occupies the dispatcher (blocked inside execute)...
        first = self._ask_in_background(daemon, outcomes, "first", first_query)
        assert entered.wait(timeout=30)
        # ...a second, different one fills the single queue seat...
        second = self._ask_in_background(daemon, outcomes, "second", second_query)
        self._wait_until(lambda: daemon.admission.depth() == 1)
        # ...a third, different again, must bounce immediately with 429.
        started = time.monotonic()
        with ServeClient(host=host, port=port, timeout_s=30) as c:
            with pytest.raises(QueueFullError) as excinfo:
                c.query(third_query, top_k=2)
        assert time.monotonic() - started < 5.0  # rejected, not hung
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1.0
        release.set()
        first.join(timeout=60)
        second.join(timeout=60)
        assert isinstance(outcomes["first"], dict)
        assert isinstance(outcomes["second"], dict)
        stats = daemon.stats()
        assert stats["counters"]["serve.rejected_queue_full"] >= 1

    def test_duplicate_arriving_mid_score_shares_the_one_score(
        self, served_lake, stalled_server
    ):
        _, query = served_lake
        daemon, entered, release = stalled_server
        outcomes: dict = {}
        leader = self._ask_in_background(daemon, outcomes, "leader", query)
        assert entered.wait(timeout=30)  # the leader is being scored, not queued
        assert daemon.admission.depth() == 0
        follower = self._ask_in_background(daemon, outcomes, "follower", query)
        self._wait_until(lambda: daemon.admission.coalesced_count == 1)
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert daemon.executed == [query.name]  # scored once
        assert outcomes["leader"]["coalesced"] is False
        assert outcomes["follower"]["coalesced"] is True
        assert outcomes["follower"]["results"] == outcomes["leader"]["results"]
        assert outcomes["follower"]["stats"] == outcomes["leader"]["stats"]

    def test_identical_burst_beyond_queue_limit_is_absorbed(
        self, served_lake, stalled_server
    ):
        _, query = served_lake
        (blocker,) = _distinct_queries(1)
        daemon, entered, release = stalled_server
        outcomes: dict = {}
        threads = [self._ask_in_background(daemon, outcomes, "blocker", blocker)]
        assert entered.wait(timeout=30)
        # Six copies of one request against a queue of one seat: the first
        # takes the seat, the rest take none.
        burst = 6
        for i in range(burst):
            threads.append(self._ask_in_background(daemon, outcomes, i, query))
        self._wait_until(lambda: daemon.admission.coalesced_count == burst - 1)
        assert daemon.admission.depth() == 1
        release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert all(isinstance(outcomes[i], dict) for i in range(burst)), outcomes
        assert sorted(outcomes[i]["coalesced"] for i in range(burst)) == (
            [False] + [True] * (burst - 1)
        )
        assert daemon.executed == [blocker.name, query.name]
        assert "serve.rejected_queue_full" not in daemon.stats()["counters"]

    def test_patient_follower_outlives_a_leader_that_expires_in_queue(
        self, served_lake, stalled_server
    ):
        _, query = served_lake
        (blocker,) = _distinct_queries(1)
        daemon, entered, release = stalled_server
        outcomes: dict = {}
        threads = [self._ask_in_background(daemon, outcomes, "blocker", blocker)]
        assert entered.wait(timeout=30)
        threads.append(
            self._ask_in_background(daemon, outcomes, "leader", query, timeout_s=0.2)
        )
        self._wait_until(lambda: daemon.admission.depth() == 1)
        threads.append(
            self._ask_in_background(daemon, outcomes, "follower", query, timeout_s=60)
        )
        self._wait_until(lambda: daemon.admission.coalesced_count == 1)
        # The leader gives up while its ticket is still queued...
        self._wait_until(lambda: "leader" in outcomes)
        assert isinstance(outcomes["leader"], DeadlineExpiredError)
        assert outcomes["leader"].status == 504
        # ...and the ticket it seated is still scored, for the follower.
        release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert isinstance(outcomes["follower"], dict), outcomes["follower"]
        assert outcomes["follower"]["coalesced"] is True
        assert daemon.executed == [blocker.name, query.name]
        assert daemon.dispatcher.expired_in_queue == 0

    def test_deadline_expiry_mid_rerank_returns_504(
        self, served_lake, stalled_server
    ):
        _, query = served_lake
        daemon, entered, release = stalled_server
        host, port = daemon.address
        with ServeClient(host=host, port=port, timeout_s=30) as c:
            with pytest.raises(DeadlineExpiredError) as excinfo:
                c.query(query, top_k=2, timeout_s=0.2)
        assert excinfo.value.status == 504
        assert entered.wait(timeout=30)  # the rerank really was in flight
        release.set()
        deadline = time.monotonic() + 10
        while (
            daemon.recorder.snapshot().counters.get("serve.deadline_expired", 0) < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert daemon.recorder.snapshot().counters["serve.deadline_expired"] >= 1


class TestUnixSocket:
    def test_serves_over_unix_socket(self, served_lake, tmp_path):
        store_path, query = served_lake
        socket_path = tmp_path / "serve.sock"
        config = ServeConfig(
            store_path=store_path,
            method=_METHOD,
            unix_socket=socket_path,
        )
        with DiscoveryServer(config) as daemon:
            assert daemon.address == (str(socket_path), 0)
            with ServeClient(unix_socket=socket_path) as client:
                assert client.healthz()["status"] == "ok"
                response = client.query(query, top_k=2)
                assert len(response["results"]) == 2
        assert not socket_path.exists()  # cleaned up on stop


class TestPreparedStoreUnavailable:
    """`_EngineSession.open` goes through `open_lake`: a broken prepared store
    costs warmth only.  Its path cannot be named: it is `<store>.prepared`."""

    @staticmethod
    def _copy_sketch_store(served_lake, tmp_path):
        import shutil
        import sqlite3

        store_path, query = served_lake
        copy = tmp_path / "lake.sketches"
        shutil.copy(store_path, copy)
        foreign = tmp_path / "lake.sketches.prepared"
        with sqlite3.connect(foreign) as connection:
            connection.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        return copy, foreign, query

    def test_default_path_unusable_serves_cold_with_a_warning(
        self, served_lake, tmp_path, caplog
    ):
        store_path, _, query = self._copy_sketch_store(served_lake, tmp_path)
        config = ServeConfig(store_path=store_path, method=_METHOD)
        with caplog.at_level("WARNING", logger="repro.serve.server"):
            with DiscoveryServer(config) as daemon:
                host, port = daemon.address
                with ServeClient(host=host, port=port, timeout_s=30) as client:
                    assert client.healthz()["status"] == "ok"
                    response = client.query(query, top_k=2)
        assert len(response["results"]) == 2
        assert response["stats"]["store_hits"] == 0  # cold: nothing served warm
        assert "prepared store unavailable, serving cold" in caplog.text

    def test_schema_based_session_opens_no_prepared_store(self, served_lake, tmp_path):
        """Cupid scores the sketches: its session neither opens nor creates
        ``<store>.prepared``."""
        import shutil

        from repro.serve.server import _EngineSession

        store_path, _ = served_lake
        copy = tmp_path / "lake.sketches"
        shutil.copy(store_path, copy)
        session = _EngineSession.open(ServeConfig(store_path=copy, method="Cupid"))
        try:
            assert session.engine.prepared_store is None
        finally:
            session.close()
        assert not copy.with_name(copy.name + ".prepared").exists()

    def test_prepared_path_is_not_a_config_field(self, tmp_path):
        with pytest.raises(TypeError, match="prepared_path"):
            ServeConfig(
                store_path=tmp_path / "lake.sketches",
                method=_METHOD,
                prepared_path=tmp_path / "named.db",
            )

    def test_missing_sketch_store_refuses_to_start(self, tmp_path):
        config = ServeConfig(store_path=tmp_path / "nope.sketches", method=_METHOD)
        with pytest.raises(ValueError, match="run `lake build` first"):
            DiscoveryServer(config).start()
