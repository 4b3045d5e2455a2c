"""Telemetry: spans, counters and query stats for discovery.

The paper's evaluation weighs matcher *effectiveness* against *runtime
efficiency*; this package is the instrument that attributes where a query's
time actually goes.  Three pieces:

* :mod:`repro.telemetry.recorder` — the zero-dependency, thread-safe
  recorder: context-manager spans (``with telemetry.span("rerank",
  table=name):``), monotonic counters, duration histograms with
  p50/p95/p99, and picklable :class:`TelemetrySnapshot` objects a child
  recorder hands its parent for merging.  The process-wide
  default is a no-op :class:`NullRecorder`, so the disabled path costs a
  method dispatch on the hot loop and nothing else.
* :mod:`repro.telemetry.stats` — :class:`QueryStats`, the structured
  per-query report ``LakeDiscoveryEngine.query`` fills in.
* :mod:`repro.telemetry.trace` — Chrome trace-event export
  (``chrome://tracing`` / Perfetto) of a snapshot's spans.

Typical usage::

    from repro import telemetry

    with telemetry.use(telemetry.TelemetryRecorder()) as recorder:
        engine.query(table, top_k=10)
    print(engine.last_query_stats.format_summary())
    telemetry.write_chrome_trace(recorder.snapshot(), "query.trace.json")
"""

from repro.telemetry.recorder import (
    NULL_RECORDER,
    NullRecorder,
    SpanRecord,
    TelemetryRecorder,
    TelemetrySnapshot,
    count,
    get_recorder,
    observe,
    quantile,
    set_default_recorder,
    span,
    use,
)
from repro.telemetry.stats import QueryStats
from repro.telemetry.trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "SpanRecord",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "QueryStats",
    "count",
    "get_recorder",
    "observe",
    "quantile",
    "set_default_recorder",
    "span",
    "use",
    "to_chrome_trace",
    "write_chrome_trace",
]
