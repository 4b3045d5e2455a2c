"""Structured per-query statistics for discovery queries.

:class:`QueryStats` is what :meth:`LakeDiscoveryEngine.query
<repro.lake.engine.LakeDiscoveryEngine.query>` populates after every call
(``engine.last_query_stats``): the headline numbers (shortlist size, rerank
count, prepared-store hits, stage wall-clock) are always measured — two
``perf_counter`` reads, no recorder required — and, when a real
:class:`~repro.telemetry.recorder.TelemetryRecorder` is active during the
query, the full per-query :class:`TelemetrySnapshot` (per-stage duration
histograms, store/LSH counters, trace spans) is attached.

It replaced the old ``engine.last_store_hits`` side-channel attribute
(deprecated in PR 6, removed in PR 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.recorder import TelemetrySnapshot

__all__ = ["QueryStats"]


@dataclass
class QueryStats:
    """Everything one discovery query is willing to tell you about itself."""

    query_name: str = ""
    mode: str = "joinable"
    #: Candidate tables surfaced by the LSH shortlist (before resolution).
    shortlist_size: int = 0
    #: Candidates the matcher actually scored (before top-k truncation).
    rerank_count: int = 0
    #: Candidates served straight from the prepared store (no CSV, no prepare).
    store_hits: int = 0
    #: Whole-query wall clock, and its two headline stages.  Always
    #: measured, even with telemetry disabled.  The rerank stage runs from
    #: preparing the query to the ranking, stage-1 pricing included.
    total_seconds: float = 0.0
    shortlist_seconds: float = 0.0
    rerank_seconds: float = 0.0
    #: Cascade outcome: candidates skipped on a finite bound below the
    #: top-k cutoff, and candidates scored exactly (0/0 when not cascaded).
    cascade_skipped: int = 0
    cascade_exact: int = 0
    #: The per-query telemetry snapshot — ``None`` when no recorder was
    #: active (the headline numbers above still are).
    snapshot: Optional[TelemetrySnapshot] = field(default=None, repr=False)

    @property
    def counters(self) -> dict:
        """The snapshot's counters (empty when telemetry was disabled)."""
        return dict(self.snapshot.counters) if self.snapshot is not None else {}

    @property
    def stage_seconds(self) -> dict:
        """Summed seconds per instrumented stage (empty when disabled)."""
        return self.snapshot.stage_seconds() if self.snapshot is not None else {}

    @property
    def store_hit_rate(self) -> float:
        """Fraction of reranked candidates served from the prepared store."""
        return self.store_hits / self.rerank_count if self.rerank_count else 0.0

    def format_summary(self) -> str:
        """A human-readable multi-line summary (the CLI's ``--stats`` output)."""
        lines = [
            f"query stats: {self.query_name!r} mode={self.mode}",
            f"  shortlist: {self.shortlist_size} candidates "
            f"in {self.shortlist_seconds * 1e3:.1f} ms",
            f"  rerank:    {self.rerank_count} scored, {self.store_hits} "
            f"store-served ({self.store_hit_rate:.0%}) "
            f"in {self.rerank_seconds * 1e3:.1f} ms",
            f"  total:     {self.total_seconds * 1e3:.1f} ms",
        ]
        if self.cascade_skipped or self.cascade_exact:
            lines.append(
                f"  cascade:   {self.cascade_exact} exact-scored, "
                f"{self.cascade_skipped} skipped by bound"
            )
        if self.snapshot is not None:
            stage_names = sorted(
                self.snapshot.durations,
                key=lambda name: -sum(self.snapshot.durations[name]),
            )
            if stage_names:
                lines.append("  stages (count / total / p50 / p95 / p99, ms):")
                for name in stage_names:
                    summary = self.snapshot.duration_summary(name)
                    lines.append(
                        f"    {name:<28s} {int(summary['count']):>5d}  "
                        f"{summary['total'] * 1e3:>8.1f}  "
                        f"{summary['p50'] * 1e3:>7.2f}  "
                        f"{summary['p95'] * 1e3:>7.2f}  "
                        f"{summary['p99'] * 1e3:>7.2f}"
                    )
            if self.snapshot.counters:
                lines.append("  counters:")
                for name, value in sorted(self.snapshot.counters.items()):
                    lines.append(f"    {name:<36s} {value:>10g}")
            if self.snapshot.dropped_spans:
                lines.append(
                    f"  ({self.snapshot.dropped_spans} trace spans dropped "
                    "over the retention cap)"
                )
        return "\n".join(lines)
