"""Dispatcher mechanics, tested without threads where possible."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve.admission import AdmissionQueue, Deadline, DeadlineExpired, Ticket
from repro.serve.dispatcher import Dispatcher
from repro.serve.protocol import decode_query_request, request_cache_key


def _ticket(values, deadline=None) -> Ticket:
    body = json.dumps(
        {"table": {"name": "q", "columns": {"a": values}}}
    ).encode("utf-8")
    request = decode_query_request(body)
    return Ticket(request=request, key=request_cache_key(request), deadline=deadline)


def _dispatcher(execute, **kwargs) -> Dispatcher:
    return Dispatcher(AdmissionQueue(limit=16), execute=execute, **kwargs)


class TestServe:
    def test_scores_the_request_and_retires_the_key_before_resolving(self):
        dispatcher = _dispatcher(lambda request: f"scored-{request.table.name}")
        admission = dispatcher.admission
        ticket = admission.submit(_ticket([1, 2]))
        # Resolution is observed from inside a done-callback: by then a new
        # identical request must already start a fresh ticket.
        late = _ticket([1, 2])
        seen_by_late_joiner = []
        ticket.future.add_done_callback(
            lambda _: seen_by_late_joiner.append(admission.submit(late))
        )
        dispatcher._serve(admission.get(timeout=1))
        assert ticket.future.result(timeout=1) == "scored-q"
        assert seen_by_late_joiner == [late]
        assert admission.coalesced_count == 0

    def test_expired_ticket_fails_without_scoring(self):
        def execute(request):  # pragma: no cover - must not run
            raise AssertionError("an expired ticket must not execute")

        dispatcher = _dispatcher(execute)
        expired = dispatcher.admission.submit(
            _ticket([1], deadline=Deadline.after(0.0))
        )
        time.sleep(0.002)
        dispatcher._serve(expired)
        with pytest.raises(DeadlineExpired):
            expired.future.result(timeout=1)
        assert dispatcher.expired_in_queue == 1
        # Its key left the map with it: the same request starts afresh.
        again = _ticket([1])
        assert dispatcher.admission.submit(again) is again

    def test_execute_failure_reaches_every_waiter_of_the_ticket(self):
        def execute(request):
            raise RuntimeError("engine exploded")

        dispatcher = _dispatcher(execute)
        leader = dispatcher.admission.submit(_ticket([1]))
        assert dispatcher.admission.submit(_ticket([1])) is leader
        dispatcher._serve(leader)
        with pytest.raises(RuntimeError, match="engine exploded"):
            leader.future.result(timeout=1)
        again = _ticket([1])
        assert dispatcher.admission.submit(again) is again  # key retired


class TestThreadLifecycle:
    def test_on_start_failure_surfaces_from_start(self):
        def bad_start():
            raise ValueError("no store here")

        dispatcher = _dispatcher(lambda request: None, on_start=bad_start)
        with pytest.raises(ValueError, match="no store here"):
            dispatcher.start(timeout=5)
        dispatcher.stop(timeout=5)

    def test_tickets_and_hooks_run_on_dispatcher_thread(self):
        seen_threads = set()

        def execute(request):
            seen_threads.add(threading.current_thread().name)
            return "ok"

        hooks = []
        polled = threading.Event()
        dispatcher = _dispatcher(
            execute,
            on_start=lambda: hooks.append("start"),
            on_stop=lambda: hooks.append("stop"),
            before_ticket=polled.set,
        )
        dispatcher.start(timeout=5)
        try:
            assert polled.wait(timeout=5)  # the idle tick polls too
            polled.clear()
            ticket = dispatcher.admission.submit(_ticket([5, 6]))
            assert ticket.future.result(timeout=5) == "ok"
            assert polled.is_set()  # ...and so does every ticket, first
            assert seen_threads == {"serve-dispatcher"}
        finally:
            dispatcher.stop(timeout=5)
        assert hooks == ["start", "stop"]

    def test_stop_fails_pending_tickets(self):
        dispatcher = _dispatcher(lambda request: None)
        # Never started: stop() must still drain and fail queued tickets.
        ticket = dispatcher.admission.submit(_ticket([1]))
        dispatcher._fail_pending(RuntimeError("shutting down"))
        with pytest.raises(RuntimeError, match="shutting down"):
            ticket.future.result(timeout=1)
