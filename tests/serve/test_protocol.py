"""Wire-format contracts: strict decoding, exact round trips, cache keys."""

from __future__ import annotations

import json

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS
from repro.data.table import Table
from repro.discovery.search import PairScorer
from repro.matchers.registry import create_matcher
from repro.serve.protocol import (
    MODES,
    ProtocolError,
    decode_query_request,
    encode_query_request,
    request_cache_key,
    result_to_dict,
    table_to_dict,
)


def _body(**overrides) -> bytes:
    payload = {
        "table": {"name": "q", "columns": {"a": [1, 2], "b": ["x", "y"]}},
        "mode": "joinable",
    }
    payload.update(overrides)
    return json.dumps(payload).encode("utf-8")


class TestDecode:
    def test_round_trip_preserves_table_exactly(self):
        table = Table("q", {"num": [1.5, 2.25, float("nan")], "s": ["a", "b", None]})
        request = decode_query_request(encode_query_request(table, mode="unionable", top_k=3))
        assert request.mode == "unionable"
        assert request.top_k == 3
        assert request.table.name == "q"
        decoded = table_to_dict(request.table)["columns"]
        # floats survive the JSON round trip bit-exactly (NaN != NaN aside)
        assert decoded["num"][:2] == [1.5, 2.25]
        assert decoded["num"][2] != decoded["num"][2]  # NaN round-tripped
        assert decoded["s"] == ["a", "b", None]

    def test_defaults(self):
        request = decode_query_request(_body())
        assert request.mode == "joinable"
        assert request.top_k is None
        assert request.timeout_s is None

    def test_timeout_coerced_to_float(self):
        request = decode_query_request(_body(timeout_s=5))
        assert request.timeout_s == 5.0

    @pytest.mark.parametrize(
        "body",
        [
            b"not json at all",
            b"[1, 2, 3]",
            _body(table="nope"),
            _body(table={"columns": {"a": [1]}}),  # no name
            _body(table={"name": "", "columns": {"a": [1]}}),
            _body(table={"name": "q", "columns": {}}),
            _body(table={"name": "q", "columns": {"a": "scalar"}}),
            _body(table={"name": "q", "columns": {"a": [1], "b": [1, 2]}}),  # ragged
            _body(mode="sideways"),
            _body(top_k=0),
            _body(top_k=2.5),
            _body(top_k=True),
            _body(timeout_s=-1),
            _body(timeout_s="soon"),
        ],
    )
    def test_rejects_malformed_bodies(self, body):
        with pytest.raises(ProtocolError):
            decode_query_request(body)

    def test_modes_match_cli_choices(self):
        assert set(MODES) == {"joinable", "unionable", "combined"}


class TestCacheKey:
    def test_same_content_different_name_coalesces(self):
        a = decode_query_request(
            _body(table={"name": "first", "columns": {"a": [1, 2]}})
        )
        b = decode_query_request(
            _body(table={"name": "second", "columns": {"a": [1, 2]}})
        )
        assert request_cache_key(a) == request_cache_key(b)

    def test_mode_and_top_k_split_the_key(self):
        base = _body()
        a = decode_query_request(base)
        b = decode_query_request(_body(mode="unionable"))
        c = decode_query_request(_body(top_k=5))
        keys = {request_cache_key(r) for r in (a, b, c)}
        assert len(keys) == 3

    def test_timeout_does_not_split_the_key(self):
        a = decode_query_request(_body(timeout_s=1.0))
        b = decode_query_request(_body(timeout_s=30.0))
        assert request_cache_key(a) == request_cache_key(b)

    def test_different_content_different_key(self):
        a = decode_query_request(_body())
        b = decode_query_request(
            _body(table={"name": "q", "columns": {"a": [1, 3], "b": ["x", "y"]}})
        )
        assert request_cache_key(a) != request_cache_key(b)


class TestResultEncoding:
    @pytest.mark.parametrize("method", sorted(LIGHT_MATCHER_CONFIGS))
    def test_every_matcher_scores_in_plain_json_floats(self, method, clients_table, offices_table):
        """No ``np.float64`` leaks out of an array kernel onto the wire."""
        matcher = create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])
        result = PairScorer(matcher).score_pair(clients_table, offices_table)
        assert type(result.joinability) is float
        assert type(result.unionability) is float
        assert all(type(match.score) is float for match in result.matches)
        encoded = json.loads(json.dumps(result_to_dict(result)))
        assert encoded["joinability"] == result.joinability
        assert encoded["best_pair"] == list(result.scores.best_pair)
