"""Thin stdlib HTTP client for the discovery daemon.

One :class:`ServeClient` wraps one keep-alive connection (TCP or unix
socket), so a benchmark thread pays the connect cost once and then
measures request latency, not TCP setup.  Instances are **not**
thread-safe — ``http.client`` connections serialize one request at a
time — so concurrent clients each hold their own instance.

Back-pressure surfaces as typed exceptions: a 429 raises
:class:`QueueFullError` (with the daemon's ``Retry-After`` hint) and a
504 raises :class:`DeadlineExpiredError`, so callers distinguish "come
back later" from "this query is too slow" without parsing bodies.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.data.table import Table
from repro.serve.protocol import encode_query_request

__all__ = ["ServeClient", "ServeError", "QueueFullError", "DeadlineExpiredError"]


class ServeError(Exception):
    """A non-2xx daemon response."""

    def __init__(self, status: int, payload: dict) -> None:
        detail = payload.get("detail") or payload.get("error") or "server error"
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class QueueFullError(ServeError):
    """HTTP 429 — the admission queue rejected the request."""

    def __init__(self, status: int, payload: dict, retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class DeadlineExpiredError(ServeError):
    """HTTP 504 — the per-request deadline passed before an answer."""


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``HTTPConnection`` that dials a unix-domain socket path."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class ServeClient:
    """Talk to a :class:`~repro.serve.server.DiscoveryServer`.

    Exactly one of ``(host, port)`` or ``unix_socket`` selects the
    transport.  ``timeout_s`` is the *socket* timeout — a hung daemon
    fails the call instead of hanging the client forever; per-request
    scoring deadlines travel in the request body (``timeout_s=`` on
    :meth:`query`) and are enforced server-side.

    Back-pressure retry is **opt-in**: with ``retry_queue_full=True`` a
    :meth:`query` rejected 429 sleeps the daemon's ``Retry-After`` hint and
    resubmits, up to ``max_attempts`` total tries, then re-raises
    :class:`QueueFullError`.  Off by default — a load generator usually
    *wants* to observe the 429s, and an interactive caller should decide
    its own patience.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_socket: Optional[Union[str, Path]] = None,
        timeout_s: float = 60.0,
        retry_queue_full: bool = False,
        max_attempts: int = 3,
        retry_sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if (port is None) == (unix_socket is None):
            raise ValueError("pass exactly one of port= or unix_socket=")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._timeout = timeout_s
        self.retry_queue_full = retry_queue_full
        self.max_attempts = max_attempts
        self._retry_sleep = retry_sleep
        if unix_socket is not None:
            self._connection: http.client.HTTPConnection = _UnixHTTPConnection(
                str(unix_socket), timeout=timeout_s
            )
        else:
            self._connection = http.client.HTTPConnection(
                host, port, timeout=timeout_s
            )

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def query(
        self,
        table: Table,
        mode: str = "joinable",
        top_k: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Score *table* against the lake; returns the decoded response.

        Raises :class:`QueueFullError` / :class:`DeadlineExpiredError` /
        :class:`ServeError` for 429 / 504 / other non-2xx answers.  With
        ``retry_queue_full`` set, 429s are retried after the daemon's
        ``Retry-After`` hint (bounded by ``max_attempts``).
        """
        body = encode_query_request(table, mode=mode, top_k=top_k, timeout_s=timeout_s)
        attempts = self.max_attempts if self.retry_queue_full else 1
        for attempt in range(1, attempts + 1):
            try:
                return self._request("POST", "/query", body)
            except QueueFullError as exc:
                if attempt >= attempts:
                    raise
                self._retry_sleep(exc.retry_after)
        raise AssertionError("unreachable")  # pragma: no cover

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> dict:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # A dropped keep-alive (daemon restarted, socket idled out)
            # poisons the connection object: reset and retry once.
            self._connection.close()
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": "bad_response_body"}
        if 200 <= response.status < 300:
            return payload
        if response.status == 429:
            retry_after = float(response.getheader("Retry-After") or 1.0)
            raise QueueFullError(response.status, payload, retry_after)
        if response.status == 504:
            raise DeadlineExpiredError(response.status, payload)
        raise ServeError(response.status, payload)
