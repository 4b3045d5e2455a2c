"""The dispatcher: one thread serving the admission queue a ticket at a time.

Why a single thread: every SQLite connection in the stores is bound to the
thread that opened it (and the engine's shortlist/rerank path is written
for one caller at a time), so the daemon confines *all* engine and store
access to this thread.  HTTP handler threads never touch the engine — they
park on ticket futures.  A ticket is scored inline on this thread.

Per ticket: poll for a store reopen, fail the ticket if every waiter's
deadline passed while it queued, otherwise score it, retire its key from
the admission layer's in-flight map, and only then resolve the future.
Duplicate requests never reach this thread: the admission layer
(:mod:`repro.serve.admission`) parks them on the ticket already in flight.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Optional

from repro.serve.admission import AdmissionQueue, DeadlineExpired, Ticket
from repro.serve.protocol import QueryRequest

__all__ = ["Dispatcher"]

logger = logging.getLogger(__name__)

#: How long a blocking queue read waits before re-checking the stop flag
#: (and giving ``before_ticket`` — the store-reopen poll — a chance to run).
_IDLE_TICK_S = 0.1


class Dispatcher:
    """Owns the dispatcher thread; hooks run **on that thread** only.

    Parameters
    ----------
    admission:
        The bounded ticket queue the HTTP handlers submit into.
    execute:
        ``execute(request) -> outcome`` scoring one request (the server
        wires this to the engine).
    on_start / on_stop:
        Open and close the engine session.  They run on the dispatcher
        thread because the session's SQLite connections must be created
        and closed by the thread that uses them.  An ``on_start`` failure
        is re-raised from :meth:`start` in the caller's thread.
    before_ticket:
        Runs before each ticket and on every idle tick (never mid-score) —
        where the server polls store generations and swaps the session;
        queued tickets simply continue onto the new session.
    """

    def __init__(
        self,
        admission: AdmissionQueue,
        execute: Callable[[QueryRequest], object],
        on_start: Optional[Callable[[], None]] = None,
        on_stop: Optional[Callable[[], None]] = None,
        before_ticket: Optional[Callable[[], None]] = None,
    ) -> None:
        self.admission = admission
        self.execute = execute
        self.on_start = on_start
        self.on_stop = on_stop
        self.before_ticket = before_ticket
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
            raise RuntimeError("dispatcher already started")
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
                ticket = self.admission.get(timeout=_IDLE_TICK_S)
                if self.before_ticket is not None:
                    self._guarded_before_ticket()
                if ticket is not None:
                    self._serve(ticket)
        finally:
            self._fail_pending(RuntimeError("serve daemon is shutting down"))
            if self.on_stop is not None:
                try:
                    self.on_stop()
                except Exception:  # pragma: no cover - teardown best effort
                    logger.exception("serve session teardown failed")

    # ------------------------------------------------------------------ #
    # one ticket
    # ------------------------------------------------------------------ #
    def _serve(self, ticket: Ticket) -> None:
        if self.admission.retire(ticket, if_expired=True):
            self.expired_in_queue += 1
            ticket.future.set_exception(
                DeadlineExpired("deadline expired while queued")
            )
            return
        try:
            outcome = self.execute(ticket.request)
        except BaseException as exc:
            self.admission.retire(ticket)
            ticket.future.set_exception(exc)
            return
        # Retired before resolved: a request arriving from here on starts a
        # fresh score instead of joining a ticket that is already answered.
        self.admission.retire(ticket)
        ticket.future.set_result(outcome)

    def _guarded_before_ticket(self) -> None:
        try:
            self.before_ticket()  # type: ignore[misc]
        except Exception:  # pragma: no cover - reopen poll must not kill serve
            logger.exception("before_ticket hook failed; continuing")

    def _fail_pending(self, error: Exception) -> None:
        while (ticket := self.admission.get(timeout=0)) is not None:
            self.admission.retire(ticket)
            ticket.future.set_exception(error)
