"""Back-pressure primitives: deadlines, the bounded queue and its in-flight
key map, CLI deadline."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro.serve.admission import (
    AdmissionQueue,
    Deadline,
    DeadlineExpired,
    QueueFull,
    Ticket,
    run_with_deadline,
)
from repro.serve.protocol import decode_query_request

_BODY = b'{"table": {"name": "q", "columns": {"a": [1, 2]}}}'


_KEYS = (f"k{i}" for i in itertools.count())


def _ticket(deadline=None, key=None) -> Ticket:
    """A ticket under *key*, or under a key no other ticket has."""
    request = decode_query_request(_BODY)
    return Ticket(request=request, key=key or next(_KEYS), deadline=deadline)


class TestDeadline:
    def test_counts_down(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0

    def test_expires(self):
        deadline = Deadline.after(0.0)
        time.sleep(0.001)
        assert deadline.expired
        assert deadline.remaining() <= 0.0

    def test_ticket_without_deadline_never_expires(self):
        assert _ticket(deadline=None).expired is False


class TestAdmissionQueue:
    def test_rejects_when_full_without_blocking(self):
        queue = AdmissionQueue(limit=2)
        queue.submit(_ticket())
        queue.submit(_ticket())
        started = time.monotonic()
        with pytest.raises(QueueFull):
            queue.submit(_ticket())
        assert time.monotonic() - started < 0.5  # immediate, not a timeout

    def test_fifo(self):
        queue = AdmissionQueue(limit=8)
        tickets = [_ticket() for _ in range(3)]
        for ticket in tickets:
            queue.submit(ticket)
        assert queue.depth() == 3
        assert [queue.get(timeout=0) for _ in tickets] == tickets
        assert queue.depth() == 0

    def test_get_times_out_to_none(self):
        queue = AdmissionQueue(limit=1)
        assert queue.get(timeout=0.01) is None

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(limit=0)


class TestInFlightKeys:
    def test_duplicate_waits_on_the_ticket_in_flight_and_takes_no_seat(self):
        queue = AdmissionQueue(limit=1)
        leader = _ticket(key="same")
        assert queue.submit(leader) is leader
        # The queue is full, yet any number of duplicates are absorbed...
        assert [queue.submit(_ticket(key="same")) for _ in range(5)] == [leader] * 5
        assert queue.depth() == 1 and queue.coalesced_count == 5
        # ...while a distinct request still bounces.
        with pytest.raises(QueueFull):
            queue.submit(_ticket())

    def test_key_stays_in_flight_while_scored_until_retired(self):
        queue = AdmissionQueue(limit=4)
        leader = queue.submit(_ticket(key="same"))
        assert queue.get(timeout=0.1) is leader  # left the queue: being scored
        assert queue.submit(_ticket(key="same")) is leader
        assert queue.retire(leader) is True
        fresh = _ticket(key="same")
        assert queue.submit(fresh) is fresh

    def test_patient_duplicate_moves_the_deadline_out_never_in(self):
        queue = AdmissionQueue(limit=4)
        leader = queue.submit(_ticket(Deadline.after(0.0), key="same"))
        time.sleep(0.001)
        assert leader.expired
        queue.submit(_ticket(Deadline.after(60.0), key="same"))
        assert not leader.expired
        assert queue.retire(leader, if_expired=True) is False  # still awaited
        queue.submit(_ticket(Deadline.after(0.0), key="same"))  # impatient
        assert leader.deadline.remaining() > 30.0
        queue.submit(_ticket(None, key="same"))  # waits forever
        assert leader.deadline is None
        queue.submit(_ticket(Deadline.after(60.0), key="same"))
        assert leader.deadline is None

    def test_expired_ticket_is_retired_under_the_check(self):
        queue = AdmissionQueue(limit=4)
        leader = queue.submit(_ticket(Deadline.after(0.0), key="same"))
        time.sleep(0.001)
        assert queue.retire(leader, if_expired=True) is True
        fresh = _ticket(key="same")
        assert queue.submit(fresh) is fresh  # not parked on the dead ticket


    def test_racing_duplicates_seat_exactly_one_ticket_per_key(self):
        """Many more threads than cores, all submitting at once: a lost
        check-then-seat would seat a key twice or overflow the queue."""
        keys, copies = 8, 6
        queue = AdmissionQueue(limit=keys)
        barrier = threading.Barrier(keys * copies)
        waited_on: list = []

        def submit(key):
            barrier.wait(timeout=10)
            waited_on.append(queue.submit(_ticket(key=key)))

        threads = [
            threading.Thread(target=submit, args=(f"race-{i % keys}",))
            for i in range(keys * copies)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(waited_on) == keys * copies  # nobody bounced off a full queue
        assert len({id(ticket) for ticket in waited_on}) == keys
        assert queue.depth() == keys
        assert queue.coalesced_count == keys * (copies - 1)


class TestRunWithDeadline:
    def test_no_deadline_runs_inline(self):
        assert run_with_deadline(lambda: 41 + 1, None) == 42

    def test_fast_work_beats_the_deadline(self):
        assert run_with_deadline(lambda: "done", 30.0) == "done"

    def test_slow_work_raises(self):
        with pytest.raises(DeadlineExpired):
            run_with_deadline(lambda: time.sleep(5.0), 0.05)

    def test_worker_exceptions_propagate(self):
        def boom():
            raise RuntimeError("inner failure")

        with pytest.raises(RuntimeError, match="inner failure"):
            run_with_deadline(boom, 30.0)
