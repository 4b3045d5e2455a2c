"""Unit tests for :class:`~repro.telemetry.stats.QueryStats`, the ``--stats`` view."""

from __future__ import annotations

import pytest

from repro.telemetry.recorder import TelemetrySnapshot
from repro.telemetry.stats import QueryStats


class TestStoreHitRate:
    def test_zero_when_nothing_was_reranked(self):
        assert QueryStats(store_hits=0, rerank_count=0).store_hit_rate == 0.0

    def test_fraction_of_reranked_candidates(self):
        assert QueryStats(store_hits=3, rerank_count=4).store_hit_rate == pytest.approx(0.75)


class TestFormatSummary:
    def test_headline_only_without_a_snapshot_or_cascade(self):
        stats = QueryStats(
            query_name="q",
            shortlist_size=5,
            rerank_count=4,
            store_hits=1,
            total_seconds=0.012,
            shortlist_seconds=0.002,
            rerank_seconds=0.009,
        )
        lines = stats.format_summary().splitlines()
        assert lines == [
            "query stats: 'q' mode=joinable",
            "  shortlist: 5 candidates in 2.0 ms",
            "  rerank:    4 scored, 1 store-served (25%) in 9.0 ms",
            "  total:     12.0 ms",
        ]
        assert stats.counters == {} and stats.stage_seconds == {}

    def test_cascade_stages_and_counters_follow_the_headline(self):
        snapshot = TelemetrySnapshot(
            counters={"b.count": 2, "a.count": 7},
            durations={"fast": [0.001], "slow": [0.004, 0.006]},
            dropped_spans=3,
        )
        stats = QueryStats(
            query_name="q", cascade_skipped=2, cascade_exact=5, snapshot=snapshot
        )
        text = stats.format_summary()
        assert "  cascade:   5 exact-scored, 2 skipped by bound" in text
        # Stages are listed by total time, the slowest first.
        assert text.index("    slow") < text.index("    fast")
        # Counters are listed by name.
        assert text.index("    a.count") < text.index("    b.count")
        assert text.endswith("(3 trace spans dropped over the retention cap)")
        assert stats.counters == {"b.count": 2, "a.count": 7}
        assert stats.stage_seconds == pytest.approx({"fast": 0.001, "slow": 0.010})
