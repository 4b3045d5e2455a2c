"""End-to-end tests of the one rerank plan over the lake engine.

Covers the exactness contract — for **every** registered matcher the
ranking is byte-identical in every plan x resolve cell ({unpriced, priced}
x {warm, cold}) and equal to an index-free brute-force oracle — plus
real skipping with SemProp's admissible bound, anytime budgets, the store
round trips each plan is allowed to make, and the hash guard between the
resident index stage 1 prices from and the store.
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager, nullcontext

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS, prospect_lake

from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Table
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import DatasetRepository, DiscoveryEngine, mode_score
from repro.lake import (
    LakeDiscoveryEngine,
    SketchStore,
    build_from_paths,
    prepare_lake,
)
from repro.lake.profiles import TableSketch
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import available_matchers, create_matcher
from repro.matchers.semprop import SemPropMatcher
from repro.telemetry import TelemetryRecorder, use

TOP_K = 3

def _signature(results):
    return [(r.table_name, r.joinability, r.unionability) for r in results]


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """A file-backed sketch store plus an in-memory candidate repository."""
    query, tables = prospect_lake(slices=8)
    repository = DatasetRepository(tables)
    store = SketchStore(tmp_path_factory.mktemp("cascade") / "lake.sketches")
    for table in repository:
        store.add_table(table)
    yield query, repository, store
    store.close()


def test_config_map_covers_every_registered_matcher():
    assert set(LIGHT_MATCHER_CONFIGS) == set(available_matchers())


class _GridLake:
    """A file-backed lake every grid cell queries.

    No repository: a warm cell's candidates come from the shared prepared
    store (warmed per matcher before its first cell); a cold cell gets an
    empty prepared store of its own, so its candidates come from the CSVs.
    """

    def __init__(self, directory) -> None:
        self.query, tables = prospect_lake(slices=5)
        lake_dir = directory / "csv"
        lake_dir.mkdir()
        paths = [write_csv(table, lake_dir / f"{table.name}.csv") for table in tables]
        self.store = SketchStore(directory / "lake.sketches")
        build_from_paths(self.store, paths)
        self.prepared_store = PreparedStore(directory / "lake.sketches.prepared")
        # The oracle sees what the engine sees: tables as read back from CSV.
        self.repository = DatasetRepository(read_csv(path) for path in paths)
        self._oracle: dict[str, list] = {}

    def matcher(self, method: str):
        matcher = create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])
        prepare_lake(self.store, self.prepared_store, matcher)  # no-op once warm
        return matcher

    def oracle(self, method: str, mode: str) -> list:
        """Score every table with the matcher and sort: no index, no stores."""
        if method not in self._oracle:
            matcher = create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])
            self._oracle[method] = DiscoveryEngine(matcher=matcher).discover(
                self.query, self.repository
            )
        ranked = sorted(
            self._oracle[method],
            key=lambda r: (-mode_score(r, mode), r.table_name),
        )
        return _signature(ranked[:TOP_K])

    def close(self) -> None:
        self.prepared_store.close()
        self.store.close()


@pytest.fixture(scope="module")
def grid_lake(tmp_path_factory):
    lake = _GridLake(tmp_path_factory.mktemp("grid"))
    yield lake
    lake.close()


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("priced", [False, True], ids=["unpriced", "priced"])
@pytest.mark.parametrize("mode", ["joinable", "unionable", "combined"])
@pytest.mark.parametrize("method", sorted(LIGHT_MATCHER_CONFIGS))
def test_ranking_identical_in_every_plan_and_resolve_cell(
    grid_lake, tmp_path, method, mode, priced, warm
):
    prepared_store = (
        nullcontext(grid_lake.prepared_store)
        if warm
        else PreparedStore(tmp_path / "cold.prepared")
    )
    with prepared_store as prepared_store, LakeDiscoveryEngine(
        matcher=grid_lake.matcher(method),
        store=grid_lake.store,
        prepared_store=prepared_store,
    ) as engine:
        ranking = engine.query(grid_lake.query, mode=mode, top_k=TOP_K, cascade=priced)
        stats = engine.last_query_stats
        written = set(prepared_store.table_names()) - {grid_lake.query.name}
    assert _signature(ranking) == grid_lake.oracle(method, mode)
    assert stats.partial is False
    assert stats.shortlist_size == len(grid_lake.repository)
    if priced:
        assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size
        assert stats.rerank_count == stats.cascade_exact
    else:
        # An unpriced, unbudgeted query is not a cascade: nothing skipped,
        # and the cascade counters stay 0.
        assert stats.rerank_count == stats.shortlist_size
        assert stats.cascade_exact == stats.cascade_skipped == 0
    if warm:
        # Every scored candidate came from the prepared store.
        assert stats.store_hits == stats.rerank_count
    else:
        # Every scored candidate was read from its CSV, prepared and written
        # through; a skipped one was never read.
        assert stats.store_hits == 0
        assert len(written) == stats.rerank_count


# --------------------------------------------------------------------- #
# SemProp: the one bundled matcher with a sound (admissible) bound
# --------------------------------------------------------------------- #

# _GOOD == TOP_K: bound ordering scores the three goods first, and their
# exact scores fill the top-k cutoff every bad's bound then falls under.
_GOOD, _BAD, _ROWS = 3, 12, 30


def _neutral_table(name: str, value_of) -> Table:
    """Three string columns with ontology-neutral names (no SemProp links)."""
    return Table(
        name,
        {
            f"field_{c}": [value_of(c, r) for r in range(_ROWS)]
            for c in range(3)
        },
    )


@pytest.fixture(scope="module")
def semprop_lake(tmp_path_factory):
    """An on-disk lake where most candidates are provably hopeless.

    ``good_*`` tables share the query's exact value sets (sketch Jaccard
    ~1.0); ``bad_*`` tables are value-disjoint (sketch Jaccard ~0.0), so
    SemProp's admissible ``0.5 * max_jaccard`` bound undercuts any top-k
    cutoff seeded by the good tables.
    """
    tmp_path = tmp_path_factory.mktemp("semprop_cascade")
    lake_dir = tmp_path / "csv"
    lake_dir.mkdir()
    query = _neutral_table("query_t", lambda c, r: f"val_{c}_{r}")
    tables = [
        _neutral_table(f"good_{g}", lambda c, r: f"val_{c}_{r}")
        for g in range(_GOOD)
    ] + [
        _neutral_table(f"bad_{b}", lambda c, r, b=b: f"junk_{b}_{c}_{r}")
        for b in range(_BAD)
    ]
    for table in tables:
        write_csv(table, lake_dir / f"{table.name}.csv")
    store_path = tmp_path / "lake.sketches"
    with SketchStore(store_path) as store:
        build_from_paths(store, sorted(lake_dir.glob("*.csv")))
        with PreparedStore(tmp_path / "lake.sketches.prepared") as prepared:
            prepare_lake(store, prepared, SemPropMatcher())
    return store_path, query


@contextmanager
def _semprop_engine(store_path):
    with SketchStore(store_path, read_only=True) as store, PreparedStore(
        store_path.with_name("lake.sketches.prepared")
    ) as prepared_store, LakeDiscoveryEngine(
        matcher=SemPropMatcher(), store=store, prepared_store=prepared_store
    ) as engine:
        yield engine


def test_semprop_cascade_skips_and_stays_exact_serial(semprop_lake):
    store_path, query = semprop_lake
    with _semprop_engine(store_path) as engine:
        plain = engine.query(query, mode="joinable", top_k=TOP_K)
        cascaded = engine.query(query, mode="joinable", top_k=TOP_K, cascade=True)
        stats = engine.last_query_stats
    assert _signature(cascaded) == _signature(plain)
    # The floor the cascade is held to: an inline priced rerank scores the
    # three goods first, after which every bad's bound is under the cutoff.
    assert stats.cascade_skipped >= 0.3 * stats.shortlist_size
    assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size
    assert stats.rerank_count == stats.cascade_exact


# --------------------------------------------------------------------- #
# anytime budgets
# --------------------------------------------------------------------- #


class _SlowMatcher(JaccardLevenshteinMatcher):
    """JL with a deliberate per-pair delay, to make deadlines deterministic."""

    delay_s = 0.05

    def match_prepared(self, source, target):
        time.sleep(self.delay_s)
        return super().match_prepared(source, target)


def test_tiny_budget_stops_early_and_flags_partial(lake):
    query, repository, store = lake
    engine = LakeDiscoveryEngine(matcher=_SlowMatcher(sample_size=8), store=store)
    try:
        results = engine.query(
            query, repository, mode="combined", top_k=TOP_K, budget_ms=1.0
        )
        stats = engine.last_query_stats
        assert stats.partial is True
        assert len(results) <= TOP_K
        # Budget (1 ms) + at most the one in-flight match (50 ms) — nowhere
        # near the nine matches a full rerank would run.  (Counted, not
        # timed: the query's own prepare dwarfs the budget on a busy box.)
        assert stats.rerank_count <= 1 < stats.shortlist_size
    finally:
        engine.close()


def test_large_budget_completes_and_matches_unbudgeted(lake):
    query, repository, store = lake
    engine = LakeDiscoveryEngine(matcher=_SlowMatcher(sample_size=8), store=store)
    try:
        plain = engine.query(query, repository, mode="combined", top_k=TOP_K)
        budgeted = engine.query(
            query, repository, mode="combined", top_k=TOP_K, budget_ms=60_000.0
        )
        stats = engine.last_query_stats
        assert stats.partial is False
        assert _signature(budgeted) == _signature(plain)
        assert stats.rerank_count == stats.shortlist_size
    finally:
        engine.close()


def test_query_many_propagates_budget_and_partial(lake):
    query, repository, store = lake
    engine = LakeDiscoveryEngine(matcher=_SlowMatcher(sample_size=8), store=store)
    try:
        outcomes = engine.query_many(
            [query], repository, mode="combined", top_k=TOP_K, budget_ms=1.0
        )
        assert len(outcomes) == 1
        assert outcomes[0].stats.partial is True
        full = engine.query_many(
            [query], repository, mode="combined", top_k=TOP_K, cascade=True
        )
        assert full[0].stats.partial is False
        assert full[0].stats.cascade_exact > 0
    finally:
        engine.close()


# --------------------------------------------------------------------- #
# round-trip contract: the store reads each plan is allowed to make
# --------------------------------------------------------------------- #


class _CountingSketchStore(SketchStore):
    """Records how many names every ``table_meta`` call asked for."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.meta_calls: list[int] = []

    def table_meta(self, names):
        names = list(names)
        self.meta_calls.append(len(names))
        return super().table_meta(names)


class _CountingPreparedStore(PreparedStore):
    """Records how many keys every ``get_many`` call asked for."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.get_many_calls: list[int] = []

    def get_many(self, fingerprint, keys):
        keys = list(keys)
        self.get_many_calls.append(len(keys))
        return super().get_many(fingerprint, keys)


@pytest.fixture()
def counting_engine(semprop_lake):
    store_path, query = semprop_lake
    with _CountingSketchStore(
        store_path, read_only=True
    ) as sketch_store, _CountingPreparedStore(
        store_path.with_name("lake.sketches.prepared")
    ) as prepared_store, LakeDiscoveryEngine(
        matcher=SemPropMatcher(), store=sketch_store, prepared_store=prepared_store
    ) as engine:
        yield engine, sketch_store, prepared_store, query


def test_unpriced_inline_warm_rerank_is_one_meta_read_and_one_payload_read(
    counting_engine,
):
    engine, sketch_store, prepared_store, query = counting_engine
    engine.query(query, mode="joinable", top_k=TOP_K)
    stats = engine.last_query_stats
    assert sketch_store.meta_calls == [stats.shortlist_size]  # one read
    assert prepared_store.get_many_calls == [stats.shortlist_size]
    assert stats.store_hits == stats.rerank_count == stats.shortlist_size


def test_priced_rerank_reads_payloads_only_for_scored_candidates(
    counting_engine, monkeypatch
):
    engine, sketch_store, prepared_store, query = counting_engine
    assert len(engine.index) == _GOOD + _BAD  # warm: the lake is decoded once
    decodes: list[int] = []
    decode = TableSketch.from_bytes
    monkeypatch.setattr(
        TableSketch,
        "from_bytes",
        staticmethod(lambda data: decodes.append(len(data)) or decode(data)),
    )
    engine.query(query, mode="joinable", top_k=TOP_K, cascade=True)
    stats = engine.last_query_stats
    # Stage 1 prices from the sketches the index holds: the store is asked
    # for hashes and paths once, and no sketch is decoded again.
    assert sketch_store.meta_calls == [stats.shortlist_size]
    assert decodes == []
    assert stats.cascade_skipped > 0
    assert prepared_store.get_many_calls == [1] * stats.cascade_exact
    assert stats.store_hits == stats.cascade_exact


def test_budgeted_rerank_reads_payloads_one_candidate_at_a_time(counting_engine):
    """A deadline can stop the rerank, so nothing is read ahead of scoring."""
    engine, sketch_store, prepared_store, query = counting_engine
    plain = engine.query(query, mode="joinable", top_k=TOP_K)
    prepared_store.get_many_calls.clear()
    budgeted = engine.query(query, mode="joinable", top_k=TOP_K, budget_ms=60_000.0)
    stats = engine.last_query_stats
    assert stats.partial is False
    assert _signature(budgeted) == _signature(plain)
    assert prepared_store.get_many_calls == [1] * stats.shortlist_size
    assert stats.store_hits == stats.rerank_count == stats.shortlist_size


def test_priced_rerank_without_top_k_is_one_payload_read(counting_engine):
    """No top-k, no cutoff: even admissible bounds cannot skip, so the
    priced rerank resolves the whole shortlist in one round trip."""
    engine, sketch_store, prepared_store, query = counting_engine
    engine.query(query, mode="joinable", cascade=True)
    stats = engine.last_query_stats
    assert stats.cascade_skipped == 0
    assert stats.cascade_exact == stats.shortlist_size
    assert prepared_store.get_many_calls == [stats.shortlist_size]


def test_cold_rerank_without_prepared_store_never_decodes_sketches(semprop_lake):
    store_path, query = semprop_lake
    with _CountingSketchStore(
        store_path, read_only=True
    ) as sketch_store, LakeDiscoveryEngine(
        matcher=create_matcher("cupid"), store=sketch_store
    ) as engine:
        results = engine.query(query, mode="joinable", top_k=TOP_K)
        stats = engine.last_query_stats
    assert len(results) == TOP_K
    assert sketch_store.meta_calls == [stats.shortlist_size]
    assert stats.store_hits == 0 and stats.rerank_count == stats.shortlist_size


_TIMINGS = {"total_seconds", "shortlist_seconds", "rerank_seconds", "snapshot"}


@pytest.mark.parametrize("priced", [False, True], ids=["unpriced", "priced"])
@pytest.mark.parametrize("recorded", [False, True], ids=["no-recorder", "recorder"])
def test_query_is_query_many_of_one(counting_engine, priced, recorded):
    engine, _, _, query = counting_engine
    with use(TelemetryRecorder()) if recorded else nullcontext():
        single = engine.query(query, mode="joinable", top_k=TOP_K, cascade=priced)
        single_stats = engine.last_query_stats
        (batched,) = engine.query_many(
            [query], mode="joinable", top_k=TOP_K, cascade=priced
        )
    assert _signature(batched.results) == _signature(single)
    for name, value in vars(single_stats).items():
        if name not in _TIMINGS:
            assert getattr(batched.stats, name) == value, name
    # Both entry points attach the per-query snapshot under a recorder.
    assert (single_stats.snapshot is not None) is recorded
    assert (batched.stats.snapshot is not None) is recorded


# --------------------------------------------------------------------- #
# stage-1 plumbing: a bound is applied only to the content it prices
# --------------------------------------------------------------------- #


class _RacedSketchStore(SketchStore):
    """Lets a writer commit just before the first ``table_meta`` read."""

    def __init__(self, *args, writer, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.writer = writer

    def table_meta(self, names):
        if self.writer is not None:
            writer, self.writer = self.writer, None
            writer()
        return super().table_meta(names)


def test_table_rewritten_after_the_index_refresh_is_scored_exactly(
    semprop_lake, tmp_path
):
    """The index still holds ``bad_0``'s value-disjoint sketch (bound ~0, a
    certain skip) when a second handle commits it as a twin of the query:
    its stored hash no longer equals the indexed one, so it gets no signal
    and is scored on what the store now says it is."""
    source, query = semprop_lake
    store_path = tmp_path / source.name
    prepared_path = store_path.with_name(store_path.name + ".prepared")
    shutil.copy(source, store_path)
    shutil.copy(source.with_name(prepared_path.name), prepared_path)
    twin = _neutral_table("bad_0", lambda c, r: f"val_{c}_{r}")
    twin_csv = write_csv(twin, tmp_path / "bad_0.csv")

    def rewrite_bad_0() -> None:
        with SketchStore(store_path) as second_handle:
            assert second_handle.add_table(twin, source_path=twin_csv)

    with _RacedSketchStore(
        store_path, read_only=True, writer=rewrite_bad_0
    ) as store, PreparedStore(prepared_path) as prepared_store, LakeDiscoveryEngine(
        matcher=SemPropMatcher(), store=store, prepared_store=prepared_store
    ) as engine:
        assert len(engine.index) == _GOOD + _BAD
        raced = engine.query(query, mode="joinable", top_k=TOP_K, cascade=True)
        stats = engine.last_query_stats
        assert store.writer is None  # the commit really landed mid-query
        settled = engine.query(query, mode="joinable", top_k=TOP_K)
    # Equal scores tie-break by name, so the twin now leads the ranking.
    assert [r.table_name for r in raced] == ["bad_0", "good_0", "good_1"]
    assert _signature(raced) == _signature(settled)
    # Everything else as usual: the other bads are still skipped.
    assert stats.cascade_skipped > 0
    assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size
