"""ServeClient back-pressure retry: opt-in, bounded, honours Retry-After."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.serve.client import QueueFullError, ServeClient


def _table():
    return Table("q", [Column("a", [1, 2, 3])])


def _client(**kwargs):
    # Never actually connects: _request is monkeypatched in every test.
    return ServeClient(host="127.0.0.1", port=1, **kwargs)


def _rejecting(failures, retry_after=0.25):
    """A fake ``_request`` that rejects the first *failures* calls with 429."""
    calls = []

    def fake_request(method, path, body=None):
        calls.append(path)
        if len(calls) <= failures:
            raise QueueFullError(429, {"error": "queue_full"}, retry_after)
        return {"results": [], "attempt": len(calls)}

    return fake_request, calls


class TestQueueFullRetry:
    def test_off_by_default(self, monkeypatch):
        client = _client()
        fake, calls = _rejecting(failures=1)
        monkeypatch.setattr(client, "_request", fake)
        with pytest.raises(QueueFullError):
            client.query(_table())
        assert len(calls) == 1  # no second attempt without opting in

    def test_retries_after_the_hint_then_succeeds(self, monkeypatch):
        sleeps = []
        client = _client(
            retry_queue_full=True, max_attempts=3, retry_sleep=sleeps.append
        )
        fake, calls = _rejecting(failures=2, retry_after=0.5)
        monkeypatch.setattr(client, "_request", fake)
        response = client.query(_table())
        assert response["attempt"] == 3
        assert len(calls) == 3
        assert sleeps == [0.5, 0.5]  # slept the daemon's hint, each time

    def test_gives_up_after_max_attempts(self, monkeypatch):
        sleeps = []
        client = _client(
            retry_queue_full=True, max_attempts=3, retry_sleep=sleeps.append
        )
        fake, calls = _rejecting(failures=99)
        monkeypatch.setattr(client, "_request", fake)
        with pytest.raises(QueueFullError):
            client.query(_table())
        assert len(calls) == 3
        assert len(sleeps) == 2  # no sleep after the final failure

    def test_other_errors_are_not_retried(self, monkeypatch):
        client = _client(retry_queue_full=True, max_attempts=3)
        calls = []

        def fake_request(method, path, body=None):
            calls.append(path)
            raise ConnectionRefusedError("daemon down")

        monkeypatch.setattr(client, "_request", fake_request)
        with pytest.raises(ConnectionRefusedError):
            client.query(_table())
        assert len(calls) == 1

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            _client(retry_queue_full=True, max_attempts=0)
