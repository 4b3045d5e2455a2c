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

    from repro.telemetry.recorder import TelemetryRecorder, use
    from repro.telemetry.trace import write_chrome_trace

    with use(TelemetryRecorder()) as recorder:
        engine.query(table, top_k=10)
    print(engine.last_query_stats.format_summary())
    write_chrome_trace(recorder.snapshot(), "query.trace.json")

Import each name from the module that defines it.  The package re-exports
only the two names lakebench calls through it (``telemetry.TelemetryRecorder``
and ``telemetry.set_default_recorder``).
"""

from repro.telemetry.recorder import TelemetryRecorder, set_default_recorder

__all__ = ["TelemetryRecorder", "set_default_recorder"]
