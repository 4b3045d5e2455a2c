"""Chrome trace-event export of a telemetry snapshot.

Renders the spans of a :class:`~repro.telemetry.recorder.TelemetrySnapshot`
in the Trace Event Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): a JSON object with a ``traceEvents`` array of
complete ("ph": "X") events carrying microsecond ``ts``/``dur``.  Every
span keeps the ``pid`` of the process that recorded it, so spans merged
from several processes render as one timeline with a lane per process.

Span start times are raw ``perf_counter`` readings; the exporter shifts
them so the earliest span starts at ``ts = 0`` (trace viewers expect small
positive timestamps).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.telemetry.recorder import TelemetrySnapshot

__all__ = ["to_chrome_trace", "write_chrome_trace"]


def to_chrome_trace(snapshot: TelemetrySnapshot) -> dict:
    """Render *snapshot* as a Trace Event Format document (a plain dict).

    Every span becomes one complete event; counters ride along as a single
    metadata-ish instant event per trace would be noisy, so they are instead
    attached to the top-level ``otherData`` object (Perfetto shows it in
    the trace info dialog).
    """
    spans = snapshot.spans
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "args": {str(key): value for key, value in span.attrs},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": dict(sorted(snapshot.counters.items())),
            "dropped_spans": snapshot.dropped_spans,
        },
    }


def write_chrome_trace(
    snapshot: TelemetrySnapshot, path: Union[str, Path]
) -> Path:
    """Write the Chrome trace JSON for *snapshot* to *path*; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(snapshot), indent=1), encoding="utf-8")
    return path
