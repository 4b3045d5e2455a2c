"""The dispatcher: one thread draining the admission queue in micro-batches.

Why a single thread: every SQLite connection in the stores is bound to the
thread that opened it (and the engine's shortlist/rerank path is written
for one caller at a time), so the daemon confines *all* engine and store
access to this thread.  HTTP handler threads never touch the engine — they
park on ticket futures; concurrency comes from the rerank process pool
underneath, which each query's chunk stream keeps busy.

Batching policy: take the first ticket (blocking), then collect more for at
most ``batch_wait_s`` or until ``batch_max`` — a classic micro-batch window
that adds at most a few milliseconds of latency in exchange for coalescing:
duplicate concurrent requests (same content-hash cache key) share a single
score.  The rest of the batch goes to
:meth:`~repro.lake.engine.LakeDiscoveryEngine.query_many`, one query after
the other.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.serve.admission import AdmissionQueue, DeadlineExpired, Ticket
from repro.serve.protocol import QueryRequest

__all__ = ["MicroBatcher"]

logger = logging.getLogger(__name__)

#: How long a blocking queue read waits before re-checking the stop flag
#: (and giving ``before_batch`` — the store-reopen poll — a chance to run).
_IDLE_TICK_S = 0.1


class MicroBatcher:
    """Owns the dispatcher thread; hooks run **on that thread** only.

    Parameters
    ----------
    admission:
        The bounded ticket queue the HTTP handlers submit into.
    execute:
        ``execute(requests) -> outcomes`` scoring one deduplicated batch
        (the server wires this to ``engine.query_many``); outcomes align
        with *requests* by index.
    on_start / on_stop:
        Open and close the engine session.  They run on the dispatcher
        thread because the session's SQLite connections must be created
        and closed by the thread that uses them.  An ``on_start`` failure
        is re-raised from :meth:`start` in the caller's thread.
    before_batch:
        Runs between batches (never mid-batch) — where the server polls
        store generations and swaps the session; queued tickets simply
        continue onto the new session.
    """

    def __init__(
        self,
        admission: AdmissionQueue,
        execute: Callable[[Sequence[QueryRequest]], Sequence[object]],
        batch_max: int = 8,
        batch_wait_s: float = 0.005,
        on_start: Optional[Callable[[], None]] = None,
        on_stop: Optional[Callable[[], None]] = None,
        before_batch: Optional[Callable[[], None]] = None,
    ) -> None:
        if batch_max <= 0:
            raise ValueError("batch_max must be positive")
        self.admission = admission
        self.execute = execute
        self.batch_max = batch_max
        self.batch_wait_s = batch_wait_s
        self.on_start = on_start
        self.on_stop = on_stop
        self.before_batch = before_batch
        self.batches_run = 0
        self.coalesced_count = 0
        self.expired_in_queue = 0
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, timeout: float = 30.0) -> None:
        """Start the dispatcher and wait for ``on_start`` to succeed."""
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(
            target=self._run, name="serve-dispatcher", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("dispatcher did not become ready in time")
        if self._startup_error is not None:
            raise self._startup_error

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the dispatcher; pending tickets are failed, not dropped."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        try:
            if self.on_start is not None:
                self.on_start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            while not self._stop.is_set():
                first = self.admission.get(timeout=_IDLE_TICK_S)
                if first is None:
                    if self.before_batch is not None:
                        self._guarded_before_batch()
                    continue
                tickets = self._collect_batch(first)
                self._run_batch(tickets)
        finally:
            self._fail_pending(RuntimeError("serve daemon is shutting down"))
            if self.on_stop is not None:
                try:
                    self.on_stop()
                except Exception:  # pragma: no cover - teardown best effort
                    logger.exception("serve session teardown failed")

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #
    def _collect_batch(self, first: Ticket) -> List[Ticket]:
        tickets = [first]
        window_end = time.monotonic() + self.batch_wait_s
        while len(tickets) < self.batch_max:
            wait_left = window_end - time.monotonic()
            if wait_left <= 0:
                break
            ticket = self.admission.get(timeout=wait_left)
            if ticket is None:
                break
            tickets.append(ticket)
        return tickets

    def _run_batch(self, tickets: List[Ticket]) -> None:
        if self.before_batch is not None:
            self._guarded_before_batch()
        live: List[Ticket] = []
        for ticket in tickets:
            if ticket.expired:
                self.expired_in_queue += 1
                ticket.future.set_exception(
                    DeadlineExpired("deadline expired while queued")
                )
            else:
                live.append(ticket)
        if not live:
            return
        # Coalesce: one score per distinct cache key, fanned back out.
        order: List[str] = []
        unique: dict = {}
        for ticket in live:
            if ticket.key not in unique:
                unique[ticket.key] = ticket.request
                order.append(ticket.key)
            else:
                self.coalesced_count += 1
        try:
            outcomes = self.execute([unique[key] for key in order])
        except BaseException as exc:
            for ticket in live:
                ticket.future.set_exception(exc)
            return
        outcome_of = dict(zip(order, outcomes))
        seen_key: set = set()
        self.batches_run += 1
        for ticket in live:
            coalesced = ticket.key in seen_key
            seen_key.add(ticket.key)
            ticket.future.set_result((outcome_of[ticket.key], coalesced))

    def _guarded_before_batch(self) -> None:
        try:
            self.before_batch()  # type: ignore[misc]
        except Exception:  # pragma: no cover - reopen poll must not kill serve
            logger.exception("before_batch hook failed; continuing")

    def _fail_pending(self, error: Exception) -> None:
        for ticket in self.admission.drain(self.admission.limit):
            ticket.future.set_exception(error)
