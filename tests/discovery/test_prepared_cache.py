"""Tests of the prepared-table LRU cache keyed by (fingerprint, content hash)."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.discovery.prepared import CACHE_MAX_ENTRIES, PreparedTableCache
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.telemetry.recorder import TelemetryRecorder, use


def _table(name: str, values: list[object]) -> Table:
    return Table(name, [Column("value", values)])


@pytest.fixture
def counted():
    """``() -> (hits, misses, evictions)``: the cache's ``prepared_cache.*``
    telemetry counters for the calls the test makes."""
    recorder = TelemetryRecorder()
    with use(recorder):
        yield lambda: tuple(
            recorder.snapshot().counters.get(f"prepared_cache.{name}", 0)
            for name in ("hits", "misses", "evictions")
        )


class TestPreparedTableCache:
    def test_second_prepare_is_a_hit(self, counted):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a", "b", "c"])
        first = cache.prepare(matcher, table)
        second = cache.prepare(matcher, table)
        assert first is second
        assert counted() == (1, 1, 0)

    def test_content_change_invalidates(self, counted):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        cache.prepare(matcher, _table("t", ["a", "b"]))
        cache.prepare(matcher, _table("t", ["a", "b", "c"]))  # same name, new cells
        assert counted() == (0, 2, 0)

    def test_identical_content_hits_across_instances(self, counted):
        """Two distinct Table objects with equal content share one entry."""
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        cache.prepare(matcher, _table("t", ["a", "b"]))
        cache.prepare(matcher, _table("t", ["a", "b"]))
        assert counted() == (1, 1, 0)

    def test_same_content_different_name_does_not_collide(self, counted):
        """Lakes hold identical copies under different names; each keeps its own
        entry so discovery results never report the wrong table_name."""
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        first = cache.prepare(matcher, _table("orders", ["a", "b"]))
        second = cache.prepare(matcher, _table("orders_copy", ["a", "b"]))
        assert counted() == (0, 2, 0)
        assert first.table.name == "orders"
        assert second.table.name == "orders_copy"

    def test_match_stage_config_shares_prepared(self, counted):
        """Parameters applied only in match_prepared (JL's threshold) are
        excluded from the fingerprint, so a parameter sweep over them reuses
        one prepared payload per table."""
        cache = PreparedTableCache()
        table = _table("t", ["a", "b"])
        first = cache.prepare(JaccardLevenshteinMatcher(threshold=0.8), table)
        second = cache.prepare(JaccardLevenshteinMatcher(threshold=0.5), table)
        assert first is second
        assert counted() == (1, 1, 0)

    def test_prepare_stage_config_keys_separately(self, counted):
        """Parameters the prepare stage consumes (DB's sample_size truncates
        the prepared value lists) must produce distinct cache entries."""
        from repro.matchers.distribution_based.matcher import DistributionBasedMatcher

        cache = PreparedTableCache()
        table = _table("t", ["a", "b", "c"])
        cache.prepare(DistributionBasedMatcher(sample_size=2), table)
        cache.prepare(DistributionBasedMatcher(sample_size=3), table)
        assert counted() == (0, 2, 0)

    def test_lru_eviction(self, counted):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        tables = [_table(f"t{i}", [i]) for i in range(CACHE_MAX_ENTRIES + 1)]
        for table in tables[:-1]:
            cache.prepare(matcher, table)
        assert counted() == (0, CACHE_MAX_ENTRIES, 0)  # full, nothing evicted
        cache.prepare(matcher, tables[0])  # refresh t0: t1 becomes LRU
        cache.prepare(matcher, tables[-1])  # evicts t1
        assert counted() == (1, CACHE_MAX_ENTRIES + 1, 1)
        cache.prepare(matcher, tables[0])
        assert counted()[0] == 2  # t0 survived both rounds
        cache.prepare(matcher, tables[1])
        assert counted()[1] == CACHE_MAX_ENTRIES + 2  # t1 was evicted
