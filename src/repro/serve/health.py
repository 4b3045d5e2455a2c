"""Serving health: a circuit breaker and the daemon's health states.

The daemon degrades instead of dying.  When the shared rerank pool breaks
repeatedly (workers OOM-killed, a poisoned payload segfaulting them), the
dispatcher stops paying the spawn-retry-break cycle on every query and
falls back to serial scoring until the breaker lets a trial query through.

State machine (the classic three states):

* **closed** — normal; failures are counted, ``threshold`` consecutive
  ones open the breaker;
* **open** — the guarded path is off; after ``cooldown_s`` the next
  :meth:`~CircuitBreaker.allow` transitions to half-open;
* **half-open** — exactly one trial is allowed; success closes the
  breaker, failure re-opens it for another cooldown.

The breaker never decides *correctness* — every query is still answered
(serially, degraded); it decides when to risk the fast path again.

``/healthz`` maps the daemon's condition onto three statuses: ``ok``
(session open, breaker closed), ``degraded`` (serving, but the breaker is
open or half-open — answers are correct yet slower), ``starting`` (no
engine session yet).  ``ok`` and ``degraded`` answer HTTP 200 — a load
balancer should keep routing to a degraded node; ``starting`` answers 503.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a time-based cooldown.

    Thread-safe; *clock* is injectable (tests drive time by hand).
    """

    def __init__(
        self,
        threshold: int = 2,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        #: Lifetime transition counts (observability).
        self.opened_count = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (cooldown-aware)."""
        with self._lock:
            return self._observe()

    def _observe(self) -> str:
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown_s:
            self._state = HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the guarded path run now?

        ``True`` in closed state and for the single trial of half-open
        (repeated calls during half-open keep returning True until the
        trial's outcome is recorded — the dispatcher records an outcome
        after every allowed query, so only one trial is in flight).
        """
        with self._lock:
            return self._observe() != OPEN

    def record_success(self) -> None:
        """The guarded path worked: close and forget past failures."""
        with self._lock:
            self._state = CLOSED
            self._failures = 0

    def record_failure(self) -> None:
        """The guarded path failed; maybe open the breaker."""
        with self._lock:
            state = self._observe()
            self._failures += 1
            if state == HALF_OPEN or self._failures >= self.threshold:
                # A failed trial re-opens immediately; in closed state the
                # threshold must fill up first.
                self._state = OPEN
                self._opened_at = self._clock()
                self.opened_count += 1
                self._failures = 0

    def snapshot(self) -> dict:
        """Gauges for ``/stats``."""
        with self._lock:
            return {
                "state": self._observe(),
                "consecutive_failures": self._failures,
                "opened_count": self.opened_count,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }
