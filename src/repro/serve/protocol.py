"""JSON wire format of the discovery daemon.

One request shape (``POST /query``)::

    {"table": {"name": "orders", "columns": {"id": [1, 2], "ts": [...]}},
     "mode": "joinable", "top_k": 10, "timeout_s": 5.0}

and one response shape::

    {"query": "orders", "mode": "joinable", "coalesced": false,
     "results": [{"table_name": ..., "joinability": ..., "unionability": ...,
                  "best_pair": ["id", "order_id"]}],
     "stats": {"shortlist_size": ..., "rerank_count": ..., ...}}

Decoding is strict (unknown modes, ragged columns and non-object tables are
:class:`ProtocolError`, rendered as HTTP 400) because the daemon sits on a
socket: garbage must bounce at the door, not surface as a 500 from deep in
the engine.  Floats survive the JSON round trip exactly (``repr``-based
serialisation), so a served ranking is bit-identical to the one-shot
``lake query`` ranking over the same stores.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.data.table import Table
from repro.lake.profiles import table_content_hash

__all__ = [
    "ProtocolError",
    "QueryRequest",
    "MODES",
    "decode_query_request",
    "encode_query_request",
    "request_cache_key",
    "result_to_dict",
    "response_to_dict",
    "table_to_dict",
]

MODES = ("joinable", "unionable", "combined")


class ProtocolError(ValueError):
    """A malformed request body — the daemon answers 400, not 500."""


@dataclass(frozen=True)
class QueryRequest:
    """One decoded, validated ``/query`` request."""

    table: Table
    mode: str = "joinable"
    top_k: Optional[int] = None
    timeout_s: Optional[float] = None
    #: Anytime rerank budget (milliseconds): the engine stops scoring at the
    #: deadline and flags the response stats ``partial``.
    budget_ms: Optional[float] = None


def table_to_dict(table: Table) -> dict:
    """The wire form of a :class:`Table` (name + column-major values)."""
    return {
        "name": table.name,
        "columns": {column.name: list(column.values) for column in table.columns},
    }


def encode_query_request(
    table: Table,
    mode: str = "joinable",
    top_k: Optional[int] = None,
    timeout_s: Optional[float] = None,
    budget_ms: Optional[float] = None,
) -> bytes:
    """Client-side: serialise one ``/query`` body."""
    payload: dict = {"table": table_to_dict(table), "mode": mode}
    if top_k is not None:
        payload["top_k"] = top_k
    if timeout_s is not None:
        payload["timeout_s"] = timeout_s
    if budget_ms is not None:
        payload["budget_ms"] = budget_ms
    return json.dumps(payload).encode("utf-8")


def decode_query_request(body: bytes) -> QueryRequest:
    """Server-side: parse and validate one ``/query`` body."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")

    raw_table = payload.get("table")
    if not isinstance(raw_table, dict):
        raise ProtocolError('"table" must be an object with "name" and "columns"')
    name = raw_table.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError('"table.name" must be a non-empty string')
    raw_columns = raw_table.get("columns")
    if not isinstance(raw_columns, Mapping) or not raw_columns:
        raise ProtocolError('"table.columns" must be a non-empty object')
    for column_name, values in raw_columns.items():
        if not isinstance(column_name, str):
            raise ProtocolError("column names must be strings")
        if not isinstance(values, list):
            raise ProtocolError(f"column {column_name!r} values must be a JSON array")
    try:
        table = Table(name, {str(k): v for k, v in raw_columns.items()})
    except ValueError as exc:  # ragged columns, duplicate names
        raise ProtocolError(str(exc)) from exc

    mode = payload.get("mode", "joinable")
    if mode not in MODES:
        raise ProtocolError(f'"mode" must be one of {MODES}, got {mode!r}')

    top_k = payload.get("top_k")
    if top_k is not None:
        if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k <= 0:
            raise ProtocolError('"top_k" must be a positive integer')

    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool):
            raise ProtocolError('"timeout_s" must be a number')
        timeout_s = float(timeout_s)
        if timeout_s <= 0:
            raise ProtocolError('"timeout_s" must be positive')

    budget_ms = payload.get("budget_ms")
    if budget_ms is not None:
        if not isinstance(budget_ms, (int, float)) or isinstance(budget_ms, bool):
            raise ProtocolError('"budget_ms" must be a number')
        budget_ms = float(budget_ms)
        if budget_ms <= 0:
            raise ProtocolError('"budget_ms" must be positive')

    return QueryRequest(
        table=table,
        mode=mode,
        top_k=top_k,
        timeout_s=timeout_s,
        budget_ms=budget_ms,
    )


def request_cache_key(request: QueryRequest) -> str:
    """The coalescing key: identical concurrent requests score once.

    Keyed on table *content* (the same hash the sketch store uses for cache
    invalidation), not the table name — two clients querying the same data
    under different handles still share one rerank; the same name over
    different data does not.  ``timeout_s`` is deliberately excluded: it
    shapes waiting, not the answer.  ``budget_ms`` is deliberately
    *included*: a budgeted request may return a partial ranking, which must
    never be coalesced with (or served to) a full request.
    """
    digest = hashlib.sha256()
    digest.update(table_content_hash(request.table).encode("utf-8"))
    digest.update(
        f"|{request.mode}|{request.top_k}|{request.budget_ms}".encode("utf-8")
    )
    return digest.hexdigest()


def result_to_dict(result) -> dict:
    """The wire form of one :class:`~repro.discovery.search.DiscoveryResult`."""
    best = result.scores.best_pair
    return {
        "table_name": result.table_name,
        "joinability": result.joinability,
        "unionability": result.unionability,
        "best_pair": list(best) if best else None,
    }


def response_to_dict(request: QueryRequest, outcome, coalesced: bool) -> dict:
    """The full ``/query`` response for one admitted request.

    *outcome* is a :class:`~repro.lake.engine.BatchQueryResult`; its stats
    ride along so a client can see shortlist/rerank behaviour per request
    without scraping ``/stats``.
    """
    stats = outcome.stats
    return {
        "query": request.table.name,
        "mode": request.mode,
        "coalesced": coalesced,
        "results": [result_to_dict(result) for result in outcome.results],
        "stats": {
            "shortlist_size": stats.shortlist_size,
            "rerank_count": stats.rerank_count,
            "store_hits": stats.store_hits,
            "total_seconds": stats.total_seconds,
            "shortlist_seconds": stats.shortlist_seconds,
            "rerank_seconds": stats.rerank_seconds,
            "partial": stats.partial,
            "cascade_skipped": stats.cascade_skipped,
            "cascade_exact": stats.cascade_exact,
        },
    }
