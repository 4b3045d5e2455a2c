"""The fully parallel warm path: worker-side payload loading + RerankPool.

Contracts under test:

* a warm ``parallel=True`` query reads **zero** candidate CSVs (proved by
  deleting them) and re-prepares nothing (every candidate is a store hit);
* the engine's persistent :class:`RerankPool` is spawned once and reused
  across queries (and across engines when shared explicitly);
* cold candidates hit in a worker are written through, warming the store
  for the next (serial or parallel) query;
* with telemetry off, the instrumentation left on the warm path is a bounded
  number of no-op calls and constructs nothing.

That parallel-warm rankings equal serial-warm ones for every registered
matcher is asserted by the plan x executor grid in
``test_cascade_engine.py``.
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
from repro.matchers.registry import available_matchers, create_matcher
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
    def test_parallel_warm_query_opens_no_csvs(self, tmp_path):
        """Delete every candidate CSV after pre-warming: a parallel query
        must still answer (workers resolve purely from the stores), and its
        ranking must match the serial-warm answer recorded beforehand."""
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
                    serial = engine.query(query, top_k=3)
                    for path in csv_paths:
                        path.unlink()  # any CSV open would now fail loudly
                    parallel = engine.query(
                        query, top_k=3, parallel=True, max_workers=2
                    )
                    assert _ranking(parallel) == _ranking(serial)
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 4


class TestSingleCandidateShortlist:
    def test_parallel_warm_with_one_candidate_stays_warm(self, tmp_path):
        """Regression: a shortlist of one candidate has nothing to fan out,
        so the rerank runs inline — which must still serve the prepared
        payload from the store."""
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
                    results = engine.query(query, parallel=True, max_workers=2)
                    assert [r.table_name for r in results] == ["only"]
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 1


class TestRerankPoolLifecycle:
    def test_engine_reuses_its_lazily_created_pool(self, tmp_path):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        for i in range(3):
            table = tpcdi_prospect_table(num_rows=14, seed=60 + i).rename(f"t{i}")
            write_csv(table, lake_dir / f"t{i}.csv")
        matcher = JaccardLevenshteinMatcher()
        query = tpcdi_prospect_table(num_rows=14, seed=97).rename("query")
        with SketchStore(tmp_path / "lake.sketches") as store:
            build_from_paths(store, sorted(lake_dir.glob("*.csv")))
            with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared_store:
                prepare_lake(store, prepared_store, matcher)
                engine = LakeDiscoveryEngine(
                    matcher=matcher, store=store, prepared_store=prepared_store
                )
                assert engine.rerank_pool is None
                first = engine.query(query, parallel=True, max_workers=2)
                pool = engine.rerank_pool
                assert pool is not None and pool.spawn_count == 1
                second = engine.query(query, parallel=True, max_workers=2)
                assert engine.rerank_pool is pool and pool.spawn_count == 1
                assert _ranking(first) == _ranking(second)
                engine.close()
                assert engine.rerank_pool is None

    def test_engine_does_not_close_a_shared_pool(self, tmp_path):
        with RerankPool(max_workers=2) as pool:
            store = SketchStore(tmp_path / "lake.sketches")
            engine = LakeDiscoveryEngine(
                matcher=JaccardLevenshteinMatcher(), store=store, rerank_pool=pool
            )
            engine.close()
            assert engine.rerank_pool is pool  # left running for other owners
            assert pool.map(len, [[1, 2], [3]]) == [2, 1]  # still serves
            store.close()

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
    def test_parallel_counters_match_serial_for_every_matcher(self, warm_lake):
        """Worker-side telemetry snapshots must merge back into the parent's
        recorder so that a warm parallel query reports the *same* pipeline
        counters as the equivalent serial query, for all eight matchers —
        the counters are recorded in different processes on the parallel
        path, but the totals are a property of the query, not the plan."""
        store, prepared_path, query, _ = warm_lake
        with RerankPool(max_workers=2) as pool:
            for name in sorted(available_matchers()):
                matcher = create_matcher(name, **LIGHT_MATCHER_CONFIGS.get(name, {}))
                with PreparedStore(prepared_path) as prepared_store:
                    prepare_lake(store, prepared_store, matcher)
                    serial_engine = LakeDiscoveryEngine(
                        matcher=matcher, store=store, prepared_store=prepared_store
                    )
                    # Write the query table's own payload through, so both
                    # measured queries below run fully warm.
                    prepared_store.prepare(matcher, query)
                    serial_recorder = TelemetryRecorder()
                    with use(serial_recorder):
                        serial_engine.query(query, mode="unionable")
                    parallel_engine = LakeDiscoveryEngine(
                        matcher=matcher,
                        store=store,
                        prepared_store=prepared_store,
                        rerank_pool=pool,
                    )
                    parallel_recorder = TelemetryRecorder()
                    with use(parallel_recorder):
                        parallel_engine.query(
                            query, mode="unionable", parallel=True, max_workers=2
                        )
                    serial = serial_recorder.snapshot().counters
                    parallel = parallel_recorder.snapshot().counters
                    assert (
                        serial.get("discovery.candidates_scored")
                        == parallel.get("discovery.candidates_scored")
                        == _NUM_TABLES
                    ), f"{name}: scored-candidate counters diverged"
                    assert serial.get("prepared_store.hits") == parallel.get(
                        "prepared_store.hits"
                    ), f"{name}: prepared-store hit counters diverged"
                    # The parallel plan leaves its own fingerprints: chunk
                    # accounting and worker-measured queue waits.
                    assert parallel.get("rerank_pool.chunks", 0) >= 1
                    waits = parallel_recorder.snapshot().durations.get(
                        "rerank.queue_wait", []
                    )
                    assert waits and all(wait >= 0.0 for wait in waits)
                    # QueryStats carries the per-query snapshot and agrees
                    # with the engine-level statistics.
                    stats = parallel_engine.last_query_stats
                    assert stats is not None and stats.snapshot is not None
                    assert stats.store_hits == _NUM_TABLES
                    assert stats.rerank_count == _NUM_TABLES
                    assert stats.parallel is True

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


class TestWorkerWriteThrough:
    def test_cold_parallel_query_warms_the_store(self, tmp_path):
        """No pre-warming: workers read CSVs, prepare, and write through —
        the next serial query must be fully warm."""
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
                    cold = engine.query(query, parallel=True, max_workers=2)
                    assert engine.last_query_stats.store_hits == 0  # genuinely cold
                    # Workers wrote all four candidates through (the fifth
                    # row is the query itself, via the prepared provider).
                    assert set(prepared_store.table_names()) == {
                        "t0",
                        "t1",
                        "t2",
                        "t3",
                        "query",
                    }
                    warm = engine.query(query)  # serial, same engine
                    stats = engine.last_query_stats
                    assert stats.store_hits == stats.rerank_count == 4
                    assert _ranking(warm) == _ranking(cold)
