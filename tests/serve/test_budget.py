"""Anytime budgets through the serving stack (PR 10).

``budget_ms`` must survive encode -> decode, keep budgeted and full
requests apart in the coalescing cache key, and surface ``partial`` in the
response stats.
"""

from __future__ import annotations

import pytest

from repro.data.csv_io import write_csv
from repro.data.table import Table
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.lake import SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher
from repro.serve import DiscoveryServer, ServeClient, ServeConfig
from repro.serve.protocol import (
    ProtocolError,
    decode_query_request,
    encode_query_request,
    request_cache_key,
)

_METHOD = "jaccardlevenshtein"


def _table() -> Table:
    return Table("t", {"a": ["x", "y", "z"], "b": [1, 2, 3]})


class TestProtocol:
    def test_budget_survives_round_trip(self):
        body = encode_query_request(_table(), mode="joinable", budget_ms=12.5)
        request = decode_query_request(body)
        assert request.budget_ms == 12.5

    def test_budget_defaults_to_none(self):
        request = decode_query_request(encode_query_request(_table()))
        assert request.budget_ms is None

    @pytest.mark.parametrize("bad", [0, -1, "fast", True])
    def test_invalid_budget_is_rejected(self, bad):
        body = encode_query_request(_table())
        import json

        payload = json.loads(body)
        payload["budget_ms"] = bad
        with pytest.raises(ProtocolError):
            decode_query_request(json.dumps(payload).encode("utf-8"))

    def test_cache_key_separates_budgeted_from_full_requests(self):
        full = decode_query_request(encode_query_request(_table(), top_k=5))
        budgeted = decode_query_request(
            encode_query_request(_table(), top_k=5, budget_ms=10.0)
        )
        other_budget = decode_query_request(
            encode_query_request(_table(), top_k=5, budget_ms=20.0)
        )
        assert request_cache_key(full) != request_cache_key(budgeted)
        assert request_cache_key(budgeted) != request_cache_key(other_budget)
        # timeout_s still shapes waiting only — same key.
        timed = decode_query_request(
            encode_query_request(_table(), top_k=5, timeout_s=3.0)
        )
        assert request_cache_key(full) == request_cache_key(timed)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("budget_lake")
    lake_dir = tmp_path / "csv"
    lake_dir.mkdir()
    for i in range(4):
        table = tpcdi_prospect_table(num_rows=16, seed=40 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    store_path = tmp_path / "lake.sketches"
    with SketchStore(store_path) as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared:
            prepare_lake(store, prepared, create_matcher(_METHOD))
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


class TestServedBudgets:
    def test_tiny_budget_returns_partial_response(self, client):
        query = tpcdi_prospect_table(num_rows=16, seed=99).rename("q")
        # A microsecond-scale budget expires before the first candidate is
        # scored: deterministic partial, empty-or-short ranking, still 200.
        response = client.query(query, mode="joinable", top_k=3, budget_ms=0.001)
        assert response["stats"]["partial"] is True
        assert response["stats"]["rerank_count"] < response["stats"]["shortlist_size"]

    def test_full_request_is_not_partial(self, client):
        query = tpcdi_prospect_table(num_rows=16, seed=99).rename("q")
        response = client.query(query, mode="joinable", top_k=3)
        assert response["stats"]["partial"] is False
        assert response["stats"]["rerank_count"] == response["stats"]["shortlist_size"]
        budgeted = client.query(
            query, mode="joinable", top_k=3, budget_ms=60_000.0
        )
        assert budgeted["stats"]["partial"] is False
        assert [r["table_name"] for r in budgeted["results"]] == [
            r["table_name"] for r in response["results"]
        ]
