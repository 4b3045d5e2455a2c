"""Tests of the prepared-table LRU cache keyed by (fingerprint, content hash)."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table
from repro.discovery.prepared import PreparedTableCache
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


def _table(name: str, values: list[object]) -> Table:
    return Table(name, [Column("value", values)])


class TestPreparedTableCache:
    def test_second_prepare_is_a_hit(self):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        table = _table("t", ["a", "b", "c"])
        first = cache.prepare(matcher, table)
        second = cache.prepare(matcher, table)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_content_change_invalidates(self):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        cache.prepare(matcher, _table("t", ["a", "b"]))
        cache.prepare(matcher, _table("t", ["a", "b", "c"]))  # same name, new cells
        assert cache.misses == 2 and cache.hits == 0

    def test_identical_content_hits_across_instances(self):
        """Two distinct Table objects with equal content share one entry."""
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        cache.prepare(matcher, _table("t", ["a", "b"]))
        cache.prepare(matcher, _table("t", ["a", "b"]))
        assert cache.hits == 1

    def test_same_content_different_name_does_not_collide(self):
        """Lakes hold identical copies under different names; each keeps its own
        entry so discovery results never report the wrong table_name."""
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        first = cache.prepare(matcher, _table("orders", ["a", "b"]))
        second = cache.prepare(matcher, _table("orders_copy", ["a", "b"]))
        assert cache.hits == 0 and cache.misses == 2
        assert first.table.name == "orders"
        assert second.table.name == "orders_copy"

    def test_match_stage_config_shares_prepared(self):
        """Parameters applied only in match_prepared (JL's threshold) are
        excluded from the fingerprint, so a parameter sweep over them reuses
        one prepared payload per table."""
        cache = PreparedTableCache()
        table = _table("t", ["a", "b"])
        cache.prepare(JaccardLevenshteinMatcher(threshold=0.8), table)
        cache.prepare(JaccardLevenshteinMatcher(threshold=0.5), table)
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_prepare_stage_config_keys_separately(self):
        """Parameters the prepare stage consumes (DB's sample_size truncates
        the prepared value lists) must produce distinct cache entries."""
        from repro.matchers.distribution_based import DistributionBasedMatcher

        cache = PreparedTableCache()
        table = _table("t", ["a", "b", "c"])
        cache.prepare(DistributionBasedMatcher(sample_size=2), table)
        cache.prepare(DistributionBasedMatcher(sample_size=3), table)
        assert cache.misses == 2 and cache.hits == 0
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PreparedTableCache(max_entries=2)
        matcher = JaccardLevenshteinMatcher()
        t1, t2, t3 = (_table(f"t{i}", [i]) for i in range(3))
        cache.prepare(matcher, t1)
        cache.prepare(matcher, t2)
        cache.prepare(matcher, t1)  # refresh t1: t2 becomes LRU
        cache.prepare(matcher, t3)  # evicts t2
        assert len(cache) == 2
        cache.prepare(matcher, t1)
        assert cache.hits == 2  # t1 survived both rounds
        cache.prepare(matcher, t2)
        assert cache.misses == 4  # t2 was evicted

    def test_clear_resets(self):
        cache = PreparedTableCache()
        matcher = JaccardLevenshteinMatcher()
        cache.prepare(matcher, _table("t", ["a"]))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PreparedTableCache(max_entries=0)
