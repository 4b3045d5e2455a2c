"""Zero-dependency, thread-safe telemetry recorder for the discovery pipeline.

The pipeline's hot paths (warm rerank, LSH probing, store lookups) run at
millisecond scale and must not pay for observability they did not ask for,
so the design splits into two halves:

* :class:`NullRecorder` — the process-wide default.  Every primitive is a
  no-op (``span`` hands back one shared context manager whose enter/exit do
  nothing), so instrumentation left in the hot loop costs a dict-free
  attribute call and nothing else.
* :class:`TelemetryRecorder` — the real thing: context-manager **spans**
  (wall-clock intervals with attributes, rendered as a Chrome trace),
  monotonic **counters**, and **duration histograms** with p50/p95/p99
  summaries.  All mutation happens under one lock, so a future ``lake
  serve`` daemon can share a recorder across request threads.

Cross-process story: a discovery query records in the process that runs
it.  The one pool that runs recorded work is an
:class:`~repro.experiments.runner.ExperimentRunner` sweep on a
:class:`~repro.discovery.search.RerankPool`: each run records into its own
:class:`TelemetryRecorder` inside a spawn-based worker, and its
:class:`TelemetrySnapshot` (a plain picklable dataclass) travels back
flattened into the run's record (``tm.*`` extra metrics).  Within one
process, a child recorder's snapshot is folded into its parent with
:meth:`TelemetryRecorder.merge`.  Span timestamps come from
:func:`time.perf_counter`, which on Linux is ``CLOCK_MONOTONIC`` —
machine-wide, so spans from different processes line up on one trace
timeline.

The **active** recorder is resolved per thread (with a process-wide
default of :data:`NULL_RECORDER`): :func:`use` pushes a recorder for a
``with`` scope, and module-level :func:`span` / :func:`count` /
:func:`observe` in :mod:`repro.telemetry` delegate to whatever is active.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

__all__ = [
    "SpanRecord",
    "TelemetrySnapshot",
    "NullRecorder",
    "TelemetryRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_default_recorder",
    "use",
    "span",
    "count",
    "observe",
    "quantile",
]

Number = Union[int, float]

#: Span records a :class:`TelemetryRecorder` retains.  Counters and
#: histograms keep aggregating past it; only the span *detail* is dropped
#: (and counted in :attr:`TelemetrySnapshot.dropped_spans`), so a
#: long-running serving process cannot leak memory through its trace.
MAX_SPANS = 10_000
#: Sliding window per duration histogram: each keeps the most recent
#: ``MAX_SAMPLES`` samples.  Trimming runs in amortised batches, so a list
#: may hold up to twice as many for a while.  One-shot runs never trim; a
#: serve daemon gets recent-window quantiles instead of unbounded growth.
MAX_SAMPLES = 100_000


def quantile(samples: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by linear interpolation.

    Matches ``statistics.quantiles`` behaviour closely enough for latency
    reporting without pulling in edge-case handling for tiny samples: one
    sample is every quantile of itself, an empty list is 0.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named wall-clock interval with attributes.

    ``start`` is a raw :func:`time.perf_counter` value; consumers that need
    a common origin (the Chrome-trace exporter) subtract the earliest start
    across the whole snapshot.  ``pid`` keeps spans from different
    processes on separate trace rows.
    """

    name: str
    start: float
    duration: float
    pid: int
    attrs: tuple[tuple[str, object], ...] = ()


@dataclass
class TelemetrySnapshot:
    """A picklable, mergeable copy of a recorder's state.

    This is the unit a child recorder hands its parent to merge, and the
    one the CLI renders into the ``--stats`` summary / ``--trace-json``
    file.
    """

    counters: dict[str, Number] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    #: Spans discarded because the retention cap was hit (counters and
    #: histograms are never dropped — only the per-span trace detail is).
    dropped_spans: int = 0

    def merge(self, other: "TelemetrySnapshot") -> None:
        """Fold *other* into this snapshot (summing counters, extending samples)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, samples in other.durations.items():
            self.durations.setdefault(name, []).extend(samples)
        self.spans.extend(other.spans)
        self.dropped_spans += other.dropped_spans

    def duration_summary(self, name: str) -> dict[str, float]:
        """``{count, total, mean, p50, p95, p99}`` (seconds) for one histogram."""
        samples = self.durations.get(name, [])
        total = sum(samples)
        return {
            "count": float(len(samples)),
            "total": total,
            "mean": total / len(samples) if samples else 0.0,
            "p50": quantile(samples, 0.50),
            "p95": quantile(samples, 0.95),
            "p99": quantile(samples, 0.99),
        }

    def stage_seconds(self) -> dict[str, float]:
        """Summed duration per histogram name — the per-stage breakdown."""
        return {name: sum(samples) for name, samples in sorted(self.durations.items())}

    def as_dict(self) -> dict:
        """A JSON-ready view: counters plus per-stage histogram summaries.

        This is what the serve daemon's ``/stats`` endpoint returns — span
        detail is deliberately omitted (it is trace-file material, not a
        stats payload) but its truncation is still visible via
        ``dropped_spans``.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "stages": {name: self.duration_summary(name) for name in sorted(self.durations)},
            "dropped_spans": self.dropped_spans,
        }

    @property
    def empty(self) -> bool:
        return not (self.counters or self.durations or self.spans or self.dropped_spans)


class _NullSpan:
    """The shared do-nothing context manager handed out by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every primitive is a no-op.

    One shared instance (:data:`NULL_RECORDER`) is the process-wide default,
    so instrumented code never branches on "is telemetry on" — it calls the
    same methods and the null implementations cost a method dispatch each.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: Number = 1) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def merge(self, snapshot: TelemetrySnapshot) -> None:
        return None

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()


NULL_RECORDER = NullRecorder()


class _Span:
    """An open span; created by :meth:`TelemetryRecorder.span`.

    Exiting records both the :class:`SpanRecord` (trace detail, capped) and
    a duration-histogram sample under the span's name (never capped), so
    p50/p95/p99 stay exact even when the trace is truncated.
    """

    __slots__ = ("_recorder", "name", "attrs", "_start")

    def __init__(self, recorder: "TelemetryRecorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._recorder._finish_span(
            self.name, self._start, time.perf_counter() - self._start, self.attrs
        )
        return False


class TelemetryRecorder:
    """Collects spans, counters and duration histograms; thread-safe.

    It keeps at most ``MAX_SPANS`` span records and, per histogram, the
    most recent ``MAX_SAMPLES`` samples.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Number] = {}
        self._durations: dict[str, list[float]] = {}
        self._spans: list[SpanRecord] = []
        self._dropped_spans = 0

    # ------------------------------------------------------------------ #
    # recording primitives
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: object) -> _Span:
        """A context manager timing one named interval (``with rec.span(...)``)."""
        return _Span(self, name, attrs)

    def _observe_locked(self, name: str, seconds: float) -> None:
        samples = self._durations.setdefault(name, [])
        samples.append(seconds)
        if len(samples) > 2 * MAX_SAMPLES:
            del samples[:-MAX_SAMPLES]

    def _finish_span(
        self, name: str, start: float, duration: float, attrs: dict
    ) -> None:
        with self._lock:
            self._observe_locked(name, duration)
            if len(self._spans) < MAX_SPANS:
                self._spans.append(
                    SpanRecord(
                        name=name,
                        start=start,
                        duration=duration,
                        pid=os.getpid(),
                        attrs=tuple(sorted(attrs.items())),
                    )
                )
            else:
                self._dropped_spans += 1

    def count(self, name: str, value: Number = 1) -> None:
        """Add *value* to the monotonic counter *name*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample without span detail (histogram only)."""
        with self._lock:
            self._observe_locked(name, seconds)

    # ------------------------------------------------------------------ #
    # snapshots and merging
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TelemetrySnapshot:
        """A deep-enough copy of the current state (safe to pickle or mutate)."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                durations={name: list(s) for name, s in self._durations.items()},
                spans=list(self._spans),
                dropped_spans=self._dropped_spans,
            )

    def merge(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a (child recorder's) snapshot into this recorder."""
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, samples in snapshot.durations.items():
                mine = self._durations.setdefault(name, [])
                mine.extend(samples)
                if len(mine) > 2 * MAX_SAMPLES:
                    del mine[:-MAX_SAMPLES]
            room = MAX_SPANS - len(self._spans)
            if room >= len(snapshot.spans):
                self._spans.extend(snapshot.spans)
            else:
                self._spans.extend(snapshot.spans[:room])
                self._dropped_spans += len(snapshot.spans) - max(0, room)
            self._dropped_spans += snapshot.dropped_spans


# --------------------------------------------------------------------- #
# active-recorder resolution
# --------------------------------------------------------------------- #

_ACTIVE = threading.local()
_DEFAULT: Union[NullRecorder, TelemetryRecorder] = NULL_RECORDER


def get_recorder() -> Union[NullRecorder, TelemetryRecorder]:
    """The recorder instrumentation records into: thread-local, else default."""
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


def set_default_recorder(
    recorder: Optional[Union[NullRecorder, TelemetryRecorder]],
) -> None:
    """Set the process-wide default recorder (``None`` restores the null one)."""
    global _DEFAULT
    _DEFAULT = recorder if recorder is not None else NULL_RECORDER


@contextmanager
def use(
    recorder: Union[NullRecorder, TelemetryRecorder],
) -> Iterator[Union[NullRecorder, TelemetryRecorder]]:
    """Make *recorder* the active recorder for this thread within the block."""
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    stack.append(recorder)
    try:
        yield recorder
    finally:
        stack.pop()


def span(name: str, **attrs: object):
    """``with telemetry.span("stage", key=value):`` on the active recorder."""
    return get_recorder().span(name, **attrs)


def count(name: str, value: Number = 1) -> None:
    """Bump a counter on the active recorder (no-op when disabled)."""
    get_recorder().count(name, value)


def observe(name: str, seconds: float) -> None:
    """Record a duration sample on the active recorder (no-op when disabled)."""
    get_recorder().observe(name, seconds)
