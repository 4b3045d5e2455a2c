"""The discovery daemon: one warm engine behind three endpoints.

``DiscoveryServer`` assembles the serving stack:

* a **threaded HTTP front end** (``ThreadingHTTPServer`` over TCP, or the
  same handler over a unix socket) whose handler threads only parse,
  admit, and wait — they never touch the engine;
* **admission** (:class:`~repro.serve.admission.AdmissionQueue`): a
  bounded queue of distinct requests plus the map of cache keys in flight,
  so a request identical to one queued *or being scored* waits on that
  ticket instead of being scored again (``coalesced: true``, no seat taken);
* the **dispatcher** (:class:`~repro.serve.dispatcher.Dispatcher`): one
  thread owning the engine session, because the stores' SQLite
  connections are bound to the thread that opens them; it scores one
  ticket at a time, inline;
* one **engine session per store generation** — sketch store opened
  read-only, prepared store writable (cold queries warm it for everyone),
  both wrapped by a :class:`~repro.lake.engine.LakeDiscoveryEngine`;
* **graceful reopen**: between tickets the dispatcher polls
  :func:`~repro.lake.store.store_generation` (inode + monotone version)
  and, on change, opens the new generation before closing the old one —
  queued requests simply continue onto the fresh session, so a writer
  cycling ``lake build`` under the daemon drops no in-flight queries.

WAL caveat: generation polling detects *committed* writer cycles (version
bumps and file replacement).  A writer appending into the same inode
without bumping the store version is invisible — the repo's build tools
always bump, so this only matters for foreign writers.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import socketserver
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple

from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.lake import BatchQueryResult, LakeDiscoveryEngine, lake_generation, open_lake
from repro.matchers.registry import create_matcher
from repro.serve.admission import AdmissionQueue, Deadline, DeadlineExpired, QueueFull, Ticket
from repro.serve.dispatcher import Dispatcher
from repro.serve.protocol import (
    ProtocolError,
    QueryRequest,
    decode_query_request,
    request_cache_key,
    response_to_dict,
)
from repro.telemetry import TelemetryRecorder, use

__all__ = ["ServeConfig", "DiscoveryServer"]

logger = logging.getLogger(__name__)

#: Upper bound on a ``/query`` body; protects the daemon from a client
#: streaming an arbitrarily large table into its memory.
_MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServeConfig:
    """Everything ``lake serve`` needs to stand the daemon up."""

    store_path: Path
    method: str = "ComaSchema"
    #: Constructor kwargs for the matcher — must match what the prepared
    #: store was warmed with, or every query falls back to cold preparation.
    method_kwargs: dict = field(default_factory=dict)
    prepared_path: Optional[Path] = None
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is on DiscoveryServer.address)
    unix_socket: Optional[Path] = None  # serve on AF_UNIX instead of TCP
    queue_limit: int = 32
    default_timeout_s: Optional[float] = 30.0
    reopen_poll_s: float = 1.0
    #: Arm the two-stage rerank cascade for every served query (exact
    #: rankings; admissible bounds skip candidates that cannot reach the
    #: top-k).  Per-request anytime budgets (``budget_ms``) work either way.
    cascade: bool = False
    #: Optional :class:`~repro.faults.FaultPlan` (duck-typed: anything with
    #: ``check(operation)``) consulted at ``serve.score_batch`` — the chaos
    #: suite's injection point.  ``None`` costs nothing.
    fault_plan: Optional[object] = None


@dataclass
class _EngineSession:
    """One generation of the stores and the engine wrapped around them.

    Sessions are opened and closed **on the dispatcher thread only** —
    their SQLite connections are unusable from any other thread.
    """

    engine: LakeDiscoveryEngine
    generation: Tuple[object, object]
    table_count: int
    _resources: ExitStack

    @classmethod
    def open(cls, config: ServeConfig) -> "_EngineSession":
        generation = lake_generation(config.store_path, config.prepared_path)
        with ExitStack() as stack:
            # Sketch store read-only, prepared store writable: cold queries
            # warm it for everyone.
            store, prepared_store = stack.enter_context(
                open_lake(
                    config.store_path,
                    config.prepared_path,
                    read_only=True,
                    prepared="create",
                    warn=lambda exc: logger.warning(
                        "prepared store unavailable, serving cold: %s", exc
                    ),
                )
            )
            engine = stack.enter_context(
                LakeDiscoveryEngine(
                    matcher=create_matcher(config.method, **config.method_kwargs),
                    store=store,
                    prepared_store=prepared_store,
                )
            )
            return cls(engine, generation, len(store), stack.pop_all())

    def close(self) -> None:
        self._resources.close()


class _UnixHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to a unix-domain socket path.

    ``HTTPServer.server_bind`` assumes an ``(host, port)`` address tuple
    (it unpacks it to compute ``server_name``); for ``AF_UNIX`` the
    address is a filesystem path, so binding goes straight through
    ``socketserver.TCPServer`` and the name fields are filled by hand.
    """

    address_family = socket.AF_UNIX
    allow_reuse_address = False

    def server_bind(self) -> None:
        socketserver.TCPServer.server_bind(self)
        self.server_name = str(self.server_address)
        self.server_port = 0

    def get_request(self):
        connection, _ = self.socket.accept()
        # BaseHTTPRequestHandler renders client_address[0] in log lines; a
        # unix peer has no address, so substitute a stable placeholder.
        return connection, ("unix-socket", 0)


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/query``, ``/stats`` and ``/healthz``; engine-free.

    Runs on the front-end handler threads: everything here must be either
    thread-safe (the recorder, the admission queue) or immutable snapshots
    (the cached generation/table count) — never the engine or stores.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def daemon(self) -> "DiscoveryServer":
        return self.server.discovery  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        if self.path == "/healthz":
            payload = self.daemon.health()
            self._send_json(200 if payload["status"] == "ok" else 503, payload)
        elif self.path == "/stats":
            self._send_json(200, self.daemon.stats())
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def do_POST(self) -> None:
        if self.path != "/query":
            self._send_json(404, {"error": "not_found", "path": self.path})
            return
        try:
            body = self._read_body()
        except ProtocolError as exc:
            self._send_json(413, {"error": "body_too_large", "detail": str(exc)})
            return
        self.daemon.handle_query(body, self._send_json)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise ProtocolError(f"body of {length} bytes exceeds {_MAX_BODY_BYTES}")
        return self.rfile.read(length)

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class DiscoveryServer:
    """The daemon: construct, :meth:`start`, serve, :meth:`stop`.

    ``start()`` brings up the dispatcher (which opens the engine session
    and surfaces store-open errors here, in the caller's thread) and then
    the HTTP front end; ``stop()`` tears down in reverse.  Use as a
    context manager in tests and benchmarks.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.recorder = TelemetryRecorder()
        self.reopen_count = 0
        self._session: Optional[_EngineSession] = None
        self._session_lock = threading.Lock()  # guards the reference swap only
        self._last_reopen_poll = time.monotonic()
        self.admission = AdmissionQueue(config.queue_limit)
        self.dispatcher = Dispatcher(
            self.admission,
            execute=self._execute,
            on_start=self._open_session,
            on_stop=self._close_session,
            before_ticket=self._maybe_reopen,
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "DiscoveryServer":
        self.dispatcher.start()
        try:
            self._httpd = self._build_httpd()
        except BaseException:
            self.stop()
            raise
        self._httpd.discovery = self  # type: ignore[attr-defined]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
            self._http_thread = None
        self.dispatcher.stop()
        if self.config.unix_socket is not None:
            try:
                self.config.unix_socket.unlink()
            except OSError:
                pass

    def __enter__(self) -> "DiscoveryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def run_forever(self) -> None:
        """Block the calling thread until interrupted, then stop."""
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral port 0."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        if self.config.unix_socket is not None:
            return (str(self.config.unix_socket), 0)
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    def _build_httpd(self) -> ThreadingHTTPServer:
        if self.config.unix_socket is not None:
            path = self.config.unix_socket
            try:
                path.unlink()
            except OSError:
                pass
            httpd = _UnixHTTPServer(str(path), _Handler)
        else:
            httpd = ThreadingHTTPServer((self.config.host, self.config.port), _Handler)
        httpd.daemon_threads = True
        return httpd

    # ------------------------------------------------------------------ #
    # dispatcher-thread half (session ownership)
    # ------------------------------------------------------------------ #
    def _open_session(self) -> None:
        session = _EngineSession.open(self.config)
        with self._session_lock:
            self._session = session

    def _close_session(self) -> None:
        with self._session_lock:
            session, self._session = self._session, None
        if session is not None:
            session.close()

    def _maybe_reopen(self) -> None:
        now = time.monotonic()
        if now - self._last_reopen_poll < self.config.reopen_poll_s:
            return
        self._last_reopen_poll = now
        current = lake_generation(self.config.store_path, self.config.prepared_path)
        session = self._session
        if session is None or current == session.generation:
            return
        if current[0] is None:
            # The sketch store vanished mid-cycle (writer renaming): keep
            # serving the old generation until a readable one appears.
            return
        logger.info(
            "store generation changed %s -> %s; reopening",
            session.generation,
            current,
        )
        try:
            fresh = _EngineSession.open(self.config)
        except (ValueError, OSError) as exc:
            logger.warning("reopen failed (writer mid-cycle?), retrying later: %s", exc)
            return
        with self._session_lock:
            self._session = fresh
        session.close()
        self.reopen_count += 1
        self.recorder.count("serve.reopens")

    def _execute(self, request: QueryRequest) -> BatchQueryResult:
        session = self._session
        if session is None:  # pragma: no cover - dispatcher guarantees open
            raise RuntimeError("no engine session")
        with use(self.recorder):
            if self.config.fault_plan is not None:
                self.config.fault_plan.check("serve.score_batch")
            (outcome,) = session.engine.query_many(
                [request.table],
                mode=request.mode,
                top_k=request.top_k,
                cascade=self.config.cascade,
                budget_ms=request.budget_ms,
            )
        return outcome

    # ------------------------------------------------------------------ #
    # handler-thread half (admission + endpoints)
    # ------------------------------------------------------------------ #
    def handle_query(self, body: bytes, send_json) -> None:
        """Admit one ``/query`` body and wait (bounded) for its outcome."""
        started = time.monotonic()
        try:
            request = decode_query_request(body)
        except ProtocolError as exc:
            self.recorder.count("serve.bad_requests")
            send_json(400, {"error": "bad_request", "detail": str(exc)})
            return
        timeout_s = request.timeout_s
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        deadline = Deadline.after(timeout_s) if timeout_s is not None else None
        ticket = Ticket(
            request=request, key=request_cache_key(request), deadline=deadline
        )
        try:
            leader = self.admission.submit(ticket)
        except QueueFull:
            self.recorder.count("serve.rejected_queue_full")
            send_json(
                429,
                {"error": "queue_full", "queue_limit": self.config.queue_limit},
                {"Retry-After": "1"},
            )
            return
        self.recorder.count("serve.admitted")
        try:
            wait = deadline.remaining() if deadline is not None else None
            outcome = leader.future.result(timeout=wait)
        except (FutureTimeoutError, DeadlineExpired):
            self.recorder.count("serve.deadline_expired")
            send_json(504, {"error": "deadline_expired", "timeout_s": timeout_s})
            return
        except Exception as exc:
            # Contract: the daemon never answers 500.  A failed query is a
            # *transient server condition* — a locked store, a writer
            # mid-cycle — so tell the client to retry, the same way a full
            # queue does.
            self.recorder.count("serve.errors")
            logger.exception("query failed")
            send_json(
                503,
                {"error": "unavailable", "detail": str(exc)},
                {"Retry-After": "1"},
            )
            return
        coalesced = leader is not ticket
        if coalesced:
            self.recorder.count("serve.coalesced")
        self.recorder.observe("serve.request", time.monotonic() - started)
        send_json(200, response_to_dict(request, outcome, coalesced))

    def health_status(self) -> str:
        """``ok`` once an engine session is open, ``starting`` until then
        (also after a failed open)."""
        with self._session_lock:
            session = self._session
        return "starting" if session is None else "ok"

    def health(self) -> dict:
        """The ``/healthz`` payload — cached fields only, never the stores."""
        with self._session_lock:
            session = self._session
        return {
            "status": self.health_status(),
            "tables": session.table_count if session is not None else None,
            "generation": _generation_as_json(
                session.generation if session is not None else None
            ),
            "queue_depth": self.admission.depth(),
            "reopen_count": self.reopen_count,
        }

    def stats(self) -> dict:
        """The ``/stats`` payload: merged recorder + serving-level gauges."""
        payload = self.recorder.snapshot().as_dict()
        payload["serve"] = {
            "status": self.health_status(),
            "queue_depth": self.admission.depth(),
            "queue_limit": self.config.queue_limit,
            "coalesced": self.admission.coalesced_count,
            "expired_in_queue": self.dispatcher.expired_in_queue,
            "reopen_count": self.reopen_count,
            "pid": os.getpid(),
        }
        return payload


def _generation_as_json(generation):
    """Generations are tuples of tuples — flatten to JSON-friendly lists."""
    if generation is None:
        return None
    return [list(part) if part is not None else None for part in generation]
