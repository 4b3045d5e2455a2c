"""The warm path: how a cold query warms it, what its telemetry costs, and
the process pool experiment sweeps use.

Contracts under test:

* a warm query reads **zero** candidate CSVs (proved by deleting them) and
  re-prepares nothing (every candidate is a store hit);
* a cold query writes its candidates through, so the next one is fully warm,
  and both report the same scored-candidate counters for every matcher;
* with telemetry off, the instrumentation left on the warm path is a bounded
  number of no-op calls and constructs nothing;
* :class:`RerankPool` refuses a size below one when it is built, and heals
  itself after a worker dies (what ``ExperimentRunner`` relies on).
"""

from __future__ import annotations

from collections import Counter

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS

from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import RerankPool
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import create_matcher
from repro.telemetry import NULL_RECORDER, TelemetryRecorder, use
from repro.telemetry import recorder as telemetry_recorder

_NUM_TABLES = 5

#: Disabled-telemetry budget: module-level ``span``/``count``/``observe``
#: calls one warm serial query may make, per shortlisted candidate plus
#: query column.  A null call costs 0.1-1.4 us, so 8 of them stay under 2 %
#: of the cheapest prepared pair score (0.68 ms, SemProp); today's census is
#: 3 per query column and 2 per candidate.
_NULL_CALLS_PER_UNIT = 8


def _ranking(results):
    return [(r.table_name, r.joinability, r.unionability) for r in results]


@pytest.fixture(scope="module")
def warm_lake(tmp_path_factory):
    """A small file-backed lake: built sketch store + CSVs on disk."""
    tmp_path = tmp_path_factory.mktemp("parallel_warm")
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(_NUM_TABLES):
        table = tpcdi_prospect_table(num_rows=18, seed=30 + i).rename(f"table_{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    csv_paths = sorted(lake_dir.glob("*.csv"))
    store = SketchStore(tmp_path / "lake.sketches")
    build_from_paths(store, csv_paths)
    query = tpcdi_prospect_table(num_rows=18, seed=99).rename("query_table")
    yield store, tmp_path / "lake.sketches.prepared", query, csv_paths
    store.close()


class TestZeroCsvReads:
    def test_warm_query_opens_no_csvs(self, tmp_path):
        """Delete every candidate CSV after pre-warming: the query must still
        answer from the stores alone, and rank as it did with the CSVs."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(4):
            table = tpcdi_prospect_table(num_rows=16, seed=40 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"{table.name}.csv")
        csv_paths = sorted(lake_dir.glob("*.csv"))
        matcher = JaccardLevenshteinMatcher()
        query = tpcdi_prospect_table(num_rows=16, seed=98).rename("query")
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, csv_paths)
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                prepare_lake(store, prepared_store, matcher)
                with LakeDiscoveryEngine(
                    matcher=matcher, store=store, prepared_store=prepared_store
                ) as engine:
                    before = engine.query(query, top_k=3)
                    for path in csv_paths:
                        path.unlink()  # any CSV open would now fail loudly
                    after = engine.query(query, top_k=3)
                    assert _ranking(after) == _ranking(before)
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 4


class TestSingleCandidateShortlist:
    def test_warm_query_with_one_candidate_stays_warm(self, tmp_path):
        """A shortlist of one candidate is still served the prepared payload
        from the store."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        table = tpcdi_prospect_table(num_rows=16, seed=55).rename("only")
        only_csv = write_csv(table, lake_dir / "only.csv")
        matcher = JaccardLevenshteinMatcher()
        query = tpcdi_prospect_table(num_rows=16, seed=95).rename("query")
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, [only_csv])
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                prepare_lake(store, prepared_store, matcher)
                only_csv.unlink()  # any CSV fallback would fail loudly
                with LakeDiscoveryEngine(
                    matcher=matcher, store=store, prepared_store=prepared_store
                ) as engine:
                    results = engine.query(query)
                    assert [r.table_name for r in results] == ["only"]
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 1


class TestRerankPoolLifecycle:
    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_is_refused_at_construction(self, size):
        """Not at the first ``map``, and never read back as a worker count."""
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            RerankPool(max_workers=size)

    def test_pool_heals_after_worker_death(self):
        with RerankPool(max_workers=2) as pool:
            assert pool.map(len, [[1], [2, 3]]) == [1, 2]
            # Kill the warm workers behind the pool's back.
            executor = pool._executor
            for process in executor._processes.values():
                process.terminate()
            assert pool.map(len, [[1, 2, 3]]) == [3]
            assert pool.spawn_count == 2  # healed with one respawn


class TestTelemetryParity:
    @pytest.mark.parametrize("name", sorted(LIGHT_MATCHER_CONFIGS))
    def test_counters_match_cold_and_warm_for_every_matcher(
        self, warm_lake, tmp_path, name
    ):
        """A cold query (CSV reads, prepares, write-through) and the warm one
        after it report the same scored-candidate counters and rank the
        same: the totals are a property of the query, not of where its
        candidates came from.  The store counters tell the two apart, and
        agree with the per-query stats."""
        store, _, query, _ = warm_lake
        matcher = create_matcher(name, **LIGHT_MATCHER_CONFIGS[name])
        runs = []
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
            engine = LakeDiscoveryEngine(
                matcher=matcher, store=store, prepared_store=prepared_store
            )
            for _ in range(2):
                recorder = TelemetryRecorder()
                with use(recorder):
                    ranking = _ranking(engine.query(query, mode="unionable"))
                stats = engine.last_query_stats
                runs.append((ranking, recorder.snapshot().counters, stats))
        (cold_ranking, cold, cold_stats), (warm_ranking, warm, warm_stats) = runs
        assert warm_ranking == cold_ranking, f"{name}: rankings diverged"
        assert (
            cold.get("discovery.candidates_scored")
            == warm.get("discovery.candidates_scored")
            == _NUM_TABLES
        ), f"{name}: scored-candidate counters diverged"
        assert cold_stats.store_hits == 0
        assert cold.get("prepared_store.writes") == _NUM_TABLES + 1  # + the query
        assert warm_stats.store_hits == _NUM_TABLES
        assert warm.get("prepared_store.writes", 0) == 0
        for stats in (cold_stats, warm_stats):
            assert stats.snapshot is not None
            assert stats.rerank_count == stats.shortlist_size == _NUM_TABLES

    def test_disabled_recorder_stays_empty(self, warm_lake):
        """With the default no-op recorder the pipeline must not record
        anything anywhere — and the engine still measures its headline
        stats (sizes and stage wall-clock) without one."""
        store, prepared_path, query, _ = warm_lake
        matcher = JaccardLevenshteinMatcher(
            **LIGHT_MATCHER_CONFIGS["jaccardlevenshtein"]
        )
        with PreparedStore(prepared_path) as prepared_store:
            prepare_lake(store, prepared_store, matcher)
            engine = LakeDiscoveryEngine(
                matcher=matcher, store=store, prepared_store=prepared_store
            )
            engine.query(query, mode="unionable")
            assert NULL_RECORDER.snapshot().empty
            stats = engine.last_query_stats
            assert stats is not None
            assert stats.snapshot is None  # no recorder was active
            assert stats.shortlist_size == _NUM_TABLES
            assert stats.rerank_count == _NUM_TABLES
            assert stats.total_seconds > 0.0
            assert stats.store_hits == _NUM_TABLES

    def test_disabled_instrumentation_stays_within_a_call_budget(
        self, warm_lake, monkeypatch
    ):
        """What the instrumentation costs when telemetry is off, counted
        rather than timed: one warm serial query may make only so many
        calls into the module-level entry points, and must build no span
        and no recorder of its own."""
        store, prepared_path, query, _ = warm_lake
        matcher = create_matcher("semprop", **LIGHT_MATCHER_CONFIGS["semprop"])
        calls: Counter = Counter()
        built: Counter = Counter()

        def counted(owner, attribute, tally, key):
            original = getattr(owner, attribute)

            def wrapper(*args, **kwargs):
                tally[key] += 1
                return original(*args, **kwargs)

            return wrapper

        with PreparedStore(prepared_path) as prepared_store:
            prepare_lake(store, prepared_store, matcher)
            engine = LakeDiscoveryEngine(
                matcher=matcher, store=store, prepared_store=prepared_store
            )
            engine.query(query)  # writes the query's own payload through
            for name in ("span", "count", "observe"):
                wrapper = counted(telemetry_recorder, name, calls, name)
                monkeypatch.setattr(telemetry_recorder, name, wrapper)
            for cls in (telemetry_recorder._Span, TelemetryRecorder):
                wrapper = counted(cls, "__init__", built, cls.__name__)
                monkeypatch.setattr(cls, "__init__", wrapper)
            engine.query(query)
            monkeypatch.undo()
            stats = engine.last_query_stats
        assert telemetry_recorder.get_recorder() is NULL_RECORDER
        assert stats.store_hits == stats.rerank_count == _NUM_TABLES
        assert not built, built
        # Spans are per stage, never per candidate; the counters are the
        # LSH probe tallies (per query column) and the store hit/byte
        # tallies (per candidate).
        assert calls["span"] <= 8
        units = stats.rerank_count + query.num_columns
        assert sum(calls.values()) <= _NULL_CALLS_PER_UNIT * units, calls


class TestWriteThrough:
    def test_cold_query_warms_the_store(self, tmp_path):
        """No pre-warming: the query reads CSVs, prepares, and writes through
        — the next query must be fully warm and rank the same."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(4):
            table = tpcdi_prospect_table(num_rows=16, seed=80 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"t{i}.csv")
        matcher = JaccardLevenshteinMatcher()
        query = tpcdi_prospect_table(num_rows=16, seed=96).rename("query")
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                with LakeDiscoveryEngine(
                    matcher=matcher, store=store, prepared_store=prepared_store
                ) as engine:
                    cold = engine.query(query)
                    assert engine.last_query_stats.store_hits == 0  # genuinely cold
                    # All four candidates were written through, and the
                    # query itself via the prepared provider.
                    assert set(prepared_store.table_names()) == {
                        "t0",
                        "t1",
                        "t2",
                        "t3",
                        "query",
                    }
                    warm = engine.query(query)
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 4
                    assert _ranking(warm) == _ranking(cold)
