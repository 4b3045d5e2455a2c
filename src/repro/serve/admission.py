"""Admission control: deadlines, the bounded queue, in-flight coalescing.

The daemon's contract under overload is *reject, never hang*: a request
either gets a seat in the bounded admission queue or an immediate 429 —
the queue cannot grow without bound, and a request that waited past its
deadline is answered 504 whether it is still queued or already mid-rerank.
A request identical to one already queued **or being scored** waits on that
ticket's future instead of being scored again, and takes no queue seat.

Everything here is engine-agnostic plumbing: a :class:`Ticket` couples one
decoded request to the :class:`~concurrent.futures.Future` its handler
threads wait on; the dispatcher (:mod:`repro.serve.dispatcher`) is the only
consumer.  :func:`run_with_deadline` reuses the same deadline semantics
for the one-shot ``lake query --timeout-s`` CLI path.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.serve.protocol import QueryRequest

__all__ = [
    "Deadline",
    "DeadlineExpired",
    "QueueFull",
    "Ticket",
    "AdmissionQueue",
    "run_with_deadline",
]

T = TypeVar("T")


class QueueFull(Exception):
    """The admission queue is at capacity — rendered as HTTP 429."""


class DeadlineExpired(Exception):
    """The request's deadline passed before an answer — rendered as 504."""


class Deadline:
    """A monotonic-clock expiry shared by the daemon and the CLI.

    Built once at admission from the request's ``timeout_s`` and consulted
    at every hand-off: the dispatcher drops tickets that expired while
    queued, and the handler thread bounds its wait on the ticket future
    with :meth:`remaining`.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds until expiry — negative once the deadline has passed."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass
class Ticket:
    """One distinct request travelling from handler threads to dispatcher.

    Every handler thread whose request has this :attr:`key` blocks on
    :attr:`future` (each bounded by its own deadline); the dispatcher
    resolves it once, with the ``BatchQueryResult`` or an exception.  The
    future is the *only* channel between the threads.  :attr:`deadline` is
    the latest of the waiters' deadlines (``None``: one waits forever).
    """

    request: QueryRequest
    key: str
    deadline: Optional[Deadline] = None
    future: Future = field(default_factory=Future)

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired


class AdmissionQueue:
    """A bounded FIFO of tickets plus the map of keys in flight.

    ``limit`` counts *waiting* tickets only — requests already being scored
    by the dispatcher have left the queue, so the bound is on queued work,
    the quantity back-pressure must cap.  A key stays in the in-flight map
    from :meth:`submit` until the dispatcher calls :meth:`retire`, which it
    does *before* resolving the ticket's future: a duplicate either joins a
    ticket that is still unanswered or starts a fresh one, never a resolved
    one.  One lock covers the map, each ticket's deadline and the seating.
    """

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError("admission queue limit must be positive")
        self.limit = limit
        self.coalesced_count = 0
        self._queue: "queue.Queue[Ticket]" = queue.Queue(maxsize=limit)
        self._lock = threading.Lock()
        self._in_flight: dict[str, Ticket] = {}

    def submit(self, ticket: Ticket) -> Ticket:
        """Admit *ticket*; returns the ticket whose future to wait on.

        The in-flight ticket with the same key when there is one — no seat
        taken, its deadline moved out to the later of the two, so a patient
        duplicate is never expired by an impatient original — else *ticket*
        itself, now seated, or :class:`QueueFull` at once if no seat is free.
        """
        with self._lock:
            leader = self._in_flight.get(ticket.key)
            if leader is not None:
                if leader.deadline is not None and (
                    ticket.deadline is None
                    or ticket.deadline.expires_at > leader.deadline.expires_at
                ):
                    leader.deadline = ticket.deadline
                self.coalesced_count += 1
                return leader
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                raise QueueFull(
                    f"admission queue is full ({self.limit} waiting requests)"
                ) from None
            self._in_flight[ticket.key] = ticket
            return ticket

    def retire(self, ticket: Ticket, if_expired: bool = False) -> bool:
        """Take *ticket*'s key out of flight; returns whether that happened.

        With *if_expired*, only when its deadline has passed — checked under
        the lock :meth:`submit` extends deadlines under, so a duplicate joins
        before the check (and is waited for) or after it (and starts afresh).
        """
        with self._lock:
            if if_expired and not ticket.expired:
                return False
            self._in_flight.pop(ticket.key, None)
            return True

    def get(self, timeout: Optional[float] = None) -> Optional[Ticket]:
        """The next ticket, or ``None`` when *timeout* elapses empty."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def depth(self) -> int:
        """Approximate number of waiting tickets (racy by nature)."""
        return self._queue.qsize()


def run_with_deadline(fn: Callable[[], T], timeout_s: Optional[float]) -> T:
    """Run ``fn()`` under the daemon's deadline semantics, synchronously.

    The CLI's ``lake query --timeout-s``: *fn* runs in a daemon thread and
    the caller waits at most *timeout_s*, raising :class:`DeadlineExpired`
    on expiry.  The worker thread is not (cannot be) interrupted — it is
    abandoned, which is acceptable for a process that exits right after —
    so the caller gets a prompt, honest timeout instead of a hung terminal.
    """
    if timeout_s is None:
        return fn()
    future: Future = Future()

    def runner() -> None:
        try:
            future.set_result(fn())
        except BaseException as exc:  # propagate everything to the waiter
            future.set_exception(exc)

    thread = threading.Thread(target=runner, name="deadline-runner", daemon=True)
    thread.start()
    try:
        return future.result(timeout=timeout_s)
    except FutureTimeoutError:
        raise DeadlineExpired(
            f"query did not finish within --timeout-s {timeout_s:g}"
        ) from None
