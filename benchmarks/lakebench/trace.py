"""Timing shims installed from the benchmark's side of the fence.

A :class:`Tracer` swaps attributes on classes and modules for wrappers that
record a span (name, start, end, parent, operation id) per call, keeps the
spans in memory, and puts every original object back on :meth:`restore`.
Nothing here knows which program it is tracing: the adapter hands over
:class:`TracePoint` lists.

Self time of a span is its duration minus the duration of its direct
children, so the self times under one operation add up to the operation's
wall clock and whatever no shim covers is left, visibly, on the root.
"""

from __future__ import annotations

import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["TracePoint", "Tracer", "OP_SPAN"]

#: Name of the root span the workloads open around each operation.
OP_SPAN = "harness.op"

# Span record layout (a list, because it is appended on every shimmed call).
NAME, START, END, PARENT, OP, THREAD, PHASE, VALUE = range(8)


@dataclass(frozen=True)
class TracePoint:
    """One attribute to shim: ``setattr(owner, attr, timed(original))``.

    *measure*, when given, turns ``(args, kwargs, result)`` of a call into a
    number stored on the span (rows returned, bytes read, ...), so counts
    are taken at the same boundary as the time.
    """

    name: str
    owner: Any
    attr: str
    measure: Optional[Callable[[tuple, dict, Any], float]] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, push: bool = True) -> list:
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else -1,
            getattr(self._local, "op", None),
            threading.get_ident(),
            self.phase,
            None,
        ]
        if push:
            stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = self._open(name)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack().pop()

    @contextmanager
    def operation(self, op_id: object) -> Iterator[list]:
        """Root span of one benchmark operation; children inherit *op_id*."""
        self._local.op = op_id
        try:
            with self.span(OP_SPAN) as record:
                yield record
        finally:
            self._local.op = None

    def wrap(self, point: TracePoint, original: Callable) -> Callable:
        name, measure = point.name, point.measure
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(name, original)

        def shim(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    record[VALUE] = measure(args, kwargs, result)
                return result
            finally:
                record[END] = time.perf_counter()
                self._stack().pop()

        shim.__wrapped__ = original  # type: ignore[attr-defined]
        return shim

    def _wrap_generator(self, name: str, original: Callable) -> Callable:
        """Time only the producer's side of a generator.

        The span's length is the time spent inside ``next()``, not the time
        the consumer took between items.  Shimmed calls made *by* the
        producer would be charged to both; none of the traced generators
        makes any.
        """

        def shim(*args: Any, **kwargs: Any) -> Iterator:
            inner = original(*args, **kwargs)
            record = self._open(name, push=False)
            busy = 0.0
            try:
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - started
                        return
                    busy += time.perf_counter() - started
                    yield item
            finally:
                record[END] = record[START] + busy

        shim.__wrapped__ = original  # type: ignore[attr-defined]
        return shim

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def install(self, points: Iterable[TracePoint]) -> None:
        for point in points:
            owner, attr = point.owner, point.attr
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self.wrap(point, original.__func__))
            else:
                wrapped = self.wrap(point, original)
            self._patched.append((owner, attr, original, own))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every original back (inherited attributes are un-shadowed)."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, points: Iterable[TracePoint], phase: str) -> Iterator["Tracer"]:
        self.phase = phase
        self.install(points)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def layer_totals(self, phase: str) -> dict[str, dict[str, float]]:
        """``{span name: {self_s, total_s, calls, value}}`` over one phase."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[END] is not None and record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        totals: dict[str, dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            if record[PHASE] != phase or record[END] is None:
                continue
            entry = totals.setdefault(
                record[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0}
            )
            duration = record[END] - record[START]
            entry["self_s"] += max(0.0, duration - child_time[index])
            entry["total_s"] += duration
            entry["calls"] += 1
            if record[VALUE] is not None:
                entry["value"] += record[VALUE]
        return totals

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace / Perfetto ``X`` events."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0][START]
        events = []
        for index, record in enumerate(self.spans):
            if record[END] is None:
                continue
            events.append(
                {
                    "name": record[NAME],
                    "cat": record[PHASE],
                    "ph": "X",
                    "ts": (record[START] - origin) * 1e6,
                    "dur": (record[END] - record[START]) * 1e6,
                    "pid": 1,
                    "tid": record[THREAD],
                    "args": {"id": index, "parent": record[PARENT], "op": record[OP]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
