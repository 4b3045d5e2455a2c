"""End-to-end tests of the one rerank plan over the lake engine.

Covers the exactness contract — for **every** registered matcher the
ranking is byte-identical in every lake x resolve cell ({``families``,
``overlap``, ``prospect``} x {warm, cold}) and equal to
``DiscoveryEngine.discover``, an oracle that shares only the matcher and the
relatedness measures with the rerank; a schema-based matcher's cells read
and write no prepared row, an instance-based one's read (warm) or write
(cold) one per scored candidate — plus who prices: a query is priced
(stage-1 signals, bounds) exactly when a bound could skip — a top-k query
whose matcher's score ceiling is finite and, in the mode, above 0 — which
on lakebench's two profiles means a joinable or combined SemProp query on
``overlap`` and nothing else.  Then the one bound rule (a finite
bound skips, the base ``+inf`` never does), real skipping with SemProp's
sound bound, the store round trips each plan is allowed to make, and the
hash guard between the resident index stage 1 prices from and the store.
"""

from __future__ import annotations

import math
import shutil
from contextlib import contextmanager, nullcontext

import pytest

from matcher_support import (
    LIGHT_MATCHER_CONFIGS,
    csv_lake,
    engine_shortlist,
    lakebench_lake,
    prospect_lake,
)

from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Table
from repro.discovery import search as discovery_search
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import DatasetRepository, DiscoveryEngine
from repro.lake import engine as lake_engine
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.lake.profiles import TableSketch
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import available_matchers, create_matcher
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.telemetry.recorder import TelemetryRecorder, use

TOP_K = 3

#: The light configs, but SemProp at the store's signature width: a bound
#: needs the matcher to hash as the store sketched, so its ``overlap``
#: cells really skip.
GRID_CONFIGS = {**LIGHT_MATCHER_CONFIGS, "semprop": {"sample_size": 50}}

#: The grid's lakes: lakebench's two profiles, and each one's query.  No
#: ``families`` query can be bounded by SemProp (each has a column linked to
#: its ontology); the ``overlap`` query can (five neutral ``field_N``).
LAKES = {"families": "query_00_0", "overlap": "query_0_0"}

#: A third grid lake with typed columns (dates, numerics): a TPC-DI
#: prospect query, its unionable sibling and joinable vertical cuts.
PROSPECT = "prospect"


def _signature(results):
    return [(r.table_name, r.joinability, r.unionability) for r in results]


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """A file-backed sketch store built from CSVs (no prepared store)."""
    query, tables = prospect_lake(slices=8)
    directory = tmp_path_factory.mktemp("cascade")
    store = SketchStore(directory / "lake.sketches")
    csv_lake(directory / "csv", tables, store)
    yield query, store
    store.close()


def test_config_map_covers_every_registered_matcher():
    assert set(LIGHT_MATCHER_CONFIGS) == set(available_matchers())


class _GridLake:
    """A file-backed lake every grid cell of one lake queries.

    A warm cell's candidates come from the shared prepared store (warmed
    per matcher before its first cell); a cold cell gets an empty prepared
    store of its own, so its candidates come from the CSVs.
    """

    def __init__(self, directory, profile: str) -> None:
        self.store = SketchStore(directory / "lake.sketches")
        # The oracle sees what the engine sees: tables as read back from CSV.
        if profile == PROSPECT:
            self.query, tables = prospect_lake(slices=5)
            self.queries = [self.query]
            self.repository = csv_lake(directory / "csv", tables, self.store)
        else:
            root = lakebench_lake(directory / "gen", profile)
            paths = sorted((root / "lake").glob("*.csv"))
            self.queries = [read_csv(path) for path in sorted((root / "queries").glob("*.csv"))]
            self.query = next(q for q in self.queries if q.name == LAKES[profile])
            build_from_paths(self.store, paths)
            self.repository = DatasetRepository(read_csv(path) for path in paths)
        self.prepared_store = PreparedStore(directory / "lake.sketches.prepared")
        self._oracle: dict[tuple[str, str], list] = {}

    def matcher(self, method: str):
        matcher = create_matcher(method, **GRID_CONFIGS[method])
        prepare_lake(self.store, self.prepared_store, matcher)  # no-op once warm
        return matcher

    def oracle(self, method: str, mode: str) -> list:
        """Score every table with the matcher and sort: no index, no stores."""
        if (method, mode) not in self._oracle:
            self._oracle[method, mode] = _signature(self.discover(method, mode))
        return self._oracle[method, mode]

    def discover(self, method: str, mode: str) -> list:
        matcher = create_matcher(method, **GRID_CONFIGS[method])
        return DiscoveryEngine(matcher=matcher).discover(
            self.query, self.repository, mode=mode, top_k=TOP_K
        )

    def close(self) -> None:
        self.prepared_store.close()
        self.store.close()


@pytest.fixture(scope="module")
def grid_lakes(tmp_path_factory):
    lakes = {
        profile: _GridLake(tmp_path_factory.mktemp(f"grid_{profile}"), profile)
        for profile in [*LAKES, PROSPECT]
    }
    yield lakes
    for lake in lakes.values():
        lake.close()


def _signal_calls(monkeypatch) -> list:
    """Record every ``candidate_signals`` call the lake engine makes."""
    calls: list = []
    real = lake_engine.candidate_signals

    def recording(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(lake_engine, "candidate_signals", recording)
    return calls


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("profile", sorted([*LAKES, PROSPECT]))
@pytest.mark.parametrize("mode", ["joinable", "unionable", "combined"])
@pytest.mark.parametrize("method", sorted(LIGHT_MATCHER_CONFIGS))
def test_ranking_identical_in_every_lake_and_resolve_cell(
    grid_lakes, tmp_path, monkeypatch, method, mode, profile, warm
):
    grid_lake = grid_lakes[profile]
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
        before = set(prepared_store.raw_keys())
        calls = _signal_calls(monkeypatch)
        ranking = engine.query(grid_lake.query, mode=mode, top_k=TOP_K)
        stats = engine.last_query_stats
        written = set(prepared_store.raw_keys()) - before
    assert _signature(ranking) == grid_lake.oracle(method, mode)
    assert stats.shortlist_size == len(grid_lake.repository)
    if method == "semprop" and profile == "overlap" and mode != "unionable":
        # Priced: one signal call for the whole shortlist, and the bounds
        # skip the value-disjoint tables.
        assert len(calls) == 1
        assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size
        assert stats.rerank_count == stats.cascade_exact
        assert stats.cascade_skipped > 0
    else:
        # Unpriced: no signal computed, nothing skipped, and the cascade
        # counters stay 0.  A unionable SemProp query on ``overlap`` is
        # among these: its ceiling (0.5) is below the union threshold, so
        # every unionability is 0 and no bound can fall under the cutoff.
        assert calls == []
        assert stats.rerank_count == stats.shortlist_size
        assert stats.cascade_exact == stats.cascade_skipped == 0
    if not engine.matcher.uses_instances:
        # A schema-based matcher scores the candidates' sketches: no
        # prepared row is read or written, warm or cold.
        assert stats.store_hits == 0
        assert written == set()
    elif warm:
        # Every scored candidate came from the prepared store.
        assert stats.store_hits == stats.rerank_count
    else:
        # Every scored candidate was read from its CSV, prepared and written
        # through; a skipped one was never read.
        assert stats.store_hits == 0
        assert len(written) == stats.rerank_count


@pytest.mark.parametrize(
    "method, profile, calls_per_query",
    [
        ("cupid", "families", 0),
        ("cupid", "overlap", 0),
        ("semprop", "families", 0),
        ("semprop", "overlap", 1),
    ],
)
def test_signals_are_computed_only_for_a_query_its_matcher_can_bound(
    grid_lakes, monkeypatch, method, profile, calls_per_query
):
    """The census behind "no settable value selects pricing": over every
    query of the lake, ``candidate_signals`` runs once for a query the
    matcher can bound and never for any other."""
    grid_lake = grid_lakes[profile]
    matcher = grid_lake.matcher(method)
    with LakeDiscoveryEngine(
        matcher=matcher, store=grid_lake.store, prepared_store=grid_lake.prepared_store
    ) as engine:
        for query in grid_lake.queries:
            ceiling = matcher.score_ceiling(matcher.prepare(query))
            assert math.isfinite(ceiling) is bool(calls_per_query)
            calls = _signal_calls(monkeypatch)
            engine.query(query, mode="joinable", top_k=TOP_K)
            assert len(calls) == calls_per_query, query.name
            monkeypatch.undo()


def test_grid_oracle_does_not_share_a_planted_rerank_defect(grid_lakes, monkeypatch):
    """A unionability threshold raised by 0.1 in the constant the rerank
    scores with moves the engine's scores but not the oracle's, so the grid
    comparison fails: the two sides share no rerank code."""
    grid_lake = grid_lakes["families"]
    method, mode = "jaccardlevenshtein", "joinable"
    clean = grid_lake.oracle(method, mode)
    monkeypatch.setattr(
        discovery_search,
        "DEFAULT_UNION_THRESHOLD",
        discovery_search.DEFAULT_UNION_THRESHOLD + 0.1,
    )
    with LakeDiscoveryEngine(
        matcher=grid_lake.matcher(method),
        store=grid_lake.store,
        prepared_store=grid_lake.prepared_store,
    ) as engine:
        ranking = engine.query(grid_lake.query, mode=mode, top_k=TOP_K)
    assert _signature(grid_lake.discover(method, mode)) == clean
    assert _signature(ranking) != clean


# --------------------------------------------------------------------- #
# the one rule: a finite bound may skip, the base +inf never does
# --------------------------------------------------------------------- #


class _PricedMatcher(JaccardLevenshteinMatcher):
    """Says it can bound every query, yet keeps the base ``+inf`` bound."""

    def score_ceiling(self, prepared_query) -> float:
        return 1.0


class _WrongLowBoundMatcher(_PricedMatcher):
    """A deliberately *unsound* finite bound: claims no pair can beat 0.0."""

    def score_bound(self, prepared_query, signals) -> float:
        return 0.0


def _query_counted(engine, *args, **kwargs):
    """``engine.query(...)`` plus the counters that rerank emitted."""
    recorder = TelemetryRecorder()
    with use(recorder):
        results = engine.query(*args, **kwargs)
    return results, recorder.snapshot().counters


class TestOneBoundRule:
    def test_base_infinite_bound_never_skips(self, lake):
        query, store = lake
        with LakeDiscoveryEngine(
            matcher=JaccardLevenshteinMatcher(sample_size=8), store=store
        ) as engine:
            plain = engine.query(query, mode="combined", top_k=TOP_K)
        with LakeDiscoveryEngine(matcher=_PricedMatcher(sample_size=8), store=store) as engine:
            priced, counters = _query_counted(engine, query, mode="combined", top_k=TOP_K)
            stats = engine.last_query_stats
        assert _signature(priced) == _signature(plain)
        assert counters["rerank.cascade.skipped"] == 0
        assert counters["rerank.cascade.exact"] == stats.shortlist_size

    def test_unpriced_rerank_computes_no_bounds(self, lake, monkeypatch):
        query, store = lake

        def no_stage_one(*args, **kwargs):
            raise AssertionError("a rerank without signals computes no bounds")

        with LakeDiscoveryEngine(
            matcher=JaccardLevenshteinMatcher(sample_size=8), store=store
        ) as engine:
            plain = engine.query(query, mode="combined", top_k=TOP_K)
            monkeypatch.setattr(discovery_search, "compute_ranking_bounds", no_stage_one)
            again = engine.query(query, mode="combined", top_k=TOP_K)
        assert _signature(again) == _signature(plain)

    def test_unpriced_rerank_emits_no_cascade_counters(self, lake):
        query, store = lake
        with LakeDiscoveryEngine(
            matcher=JaccardLevenshteinMatcher(sample_size=8), store=store
        ) as engine:
            _, counters = _query_counted(
                engine, query, mode="combined", top_k=TOP_K
            )
            stats = engine.last_query_stats
        assert counters["discovery.candidates_scored"] == stats.shortlist_size
        assert not any(name.startswith("rerank.c") for name in counters)

    def test_wrong_finite_bound_visibly_skips(self, lake):
        # The *only* difference is a finite score_bound: there is no second
        # declaration to hide behind, so the lie skips candidates.  This is
        # why a matcher that cannot guarantee a bound must return +inf.
        query, store = lake
        with LakeDiscoveryEngine(
            matcher=_WrongLowBoundMatcher(sample_size=8), store=store
        ) as engine:
            _, counters = _query_counted(engine, query, mode="combined", top_k=TOP_K)
            stats = engine.last_query_stats
        assert counters["rerank.cascade.skipped"] > 0
        assert (
            counters["rerank.cascade.exact"] + counters["rerank.cascade.skipped"]
            == stats.shortlist_size
        )

    def test_cascade_prices_every_shortlisted_candidate(self, lake, monkeypatch):
        query, store = lake
        calls = _signal_calls(monkeypatch)
        with LakeDiscoveryEngine(matcher=_PricedMatcher(sample_size=8), store=store) as engine:
            shortlist = {entry.table_name for entry in engine_shortlist(engine, query, TOP_K)}
            engine.query(query, mode="combined", top_k=TOP_K)
        (priced,) = calls  # the whole shortlist in one call
        assert set(priced) == shortlist - {query.name}
        assert all(0.0 <= signal.max_jaccard <= 1.0 for signal in priced.values())


# --------------------------------------------------------------------- #
# SemProp: the one bundled matcher with a finite (sound) bound
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
    SemProp's sound ``0.5 * max_jaccard`` bound undercuts any top-k
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
        cascaded = engine.query(query, mode="joinable", top_k=TOP_K)
        stats = engine.last_query_stats
    repository = DatasetRepository(
        read_csv(path) for path in sorted((store_path.parent / "csv").glob("*.csv"))
    )
    oracle = DiscoveryEngine(SemPropMatcher()).discover(
        query, repository, mode="joinable", top_k=TOP_K
    )
    assert _signature(cascaded) == _signature(oracle)
    # The floor the cascade is held to: an inline priced rerank scores the
    # three goods first, after which every bad's bound is under the cutoff.
    assert stats.cascade_skipped >= 0.3 * stats.shortlist_size
    assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size
    assert stats.rerank_count == stats.cascade_exact


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


def _linked(query: Table) -> Table:
    """*query* plus a ``city`` column, which links to SemProp's ontology: the
    semantic branch opens, which no sketch signal bounds."""
    columns = {column.name: column.values for column in query.columns}
    return Table(query.name, {**columns, "city": columns["field_0"]})


def test_unpriced_inline_warm_rerank_is_one_meta_read_and_one_payload_read(
    counting_engine, monkeypatch
):
    """A query SemProp cannot bound computes no signal, so nothing can skip
    and the rerank resolves the whole shortlist in one round trip."""
    engine, sketch_store, prepared_store, query = counting_engine
    linked = _linked(query)
    assert math.isinf(engine.matcher.score_ceiling(engine.matcher.prepare(linked)))
    calls = _signal_calls(monkeypatch)
    engine.query(linked, mode="joinable", top_k=TOP_K)
    stats = engine.last_query_stats
    assert calls == []
    assert sketch_store.meta_calls == [stats.shortlist_size]  # one read
    assert prepared_store.get_many_calls == [stats.shortlist_size]
    assert stats.store_hits == stats.rerank_count == stats.shortlist_size
    assert stats.cascade_exact == stats.cascade_skipped == 0


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
    engine.query(query, mode="joinable", top_k=TOP_K)
    stats = engine.last_query_stats
    # Stage 1 prices from the sketches the index holds: the store is asked
    # for hashes and paths once, and no sketch is decoded again.
    assert sketch_store.meta_calls == [stats.shortlist_size]
    assert decodes == []
    assert stats.cascade_skipped > 0
    assert prepared_store.get_many_calls == [1] * stats.cascade_exact
    assert stats.store_hits == stats.cascade_exact


def test_priced_rerank_with_no_finite_bound_is_one_payload_read(
    counting_engine, monkeypatch
):
    """A priced query whose every candidate bound is +inf (here: a bound
    that refuses every candidate) cannot skip, so the priced rerank resolves
    the whole shortlist in one round trip."""
    engine, sketch_store, prepared_store, query = counting_engine
    monkeypatch.setattr(SemPropMatcher, "score_bound", lambda *args: math.inf)
    calls = _signal_calls(monkeypatch)
    engine.query(query, mode="joinable", top_k=TOP_K)
    stats = engine.last_query_stats
    assert len(calls) == 1
    assert stats.cascade_skipped == 0
    assert stats.cascade_exact == stats.shortlist_size
    assert prepared_store.get_many_calls == [stats.shortlist_size]
    assert stats.store_hits == stats.shortlist_size


@pytest.mark.parametrize(
    "mode, top_k", [("joinable", None), ("unionable", TOP_K)], ids=["no-top-k", "unionable"]
)
def test_query_no_bound_can_skip_is_unpriced_and_one_payload_read(
    counting_engine, monkeypatch, mode, top_k
):
    """SemProp can bound this query, but no bound can skip a candidate:
    without a top k there is no cutoff, and a unionable ranking under a
    0.5 ceiling is 0 everywhere.  So no signal is computed and the rerank
    resolves the whole shortlist in one round trip."""
    engine, sketch_store, prepared_store, query = counting_engine
    assert engine.matcher.score_ceiling(engine.matcher.prepare(query)) == 0.5
    calls = _signal_calls(monkeypatch)
    engine.query(query, mode=mode, top_k=top_k)
    stats = engine.last_query_stats
    assert calls == []
    assert stats.cascade_exact == stats.cascade_skipped == 0
    assert stats.rerank_count == stats.shortlist_size
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
    if not priced:
        query = _linked(query)
    with use(TelemetryRecorder()) if recorded else nullcontext():
        single = engine.query(query, mode="joinable", top_k=TOP_K)
        single_stats = engine.last_query_stats
        (batched,) = engine.query_many([query], mode="joinable", top_k=TOP_K)
    assert (single_stats.cascade_exact > 0) is priced
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
        raced = engine.query(query, mode="joinable", top_k=TOP_K)
        stats = engine.last_query_stats
        assert store.writer is None  # the commit really landed mid-query
        settled = engine.query(query, mode="joinable", top_k=TOP_K)
    # Equal scores tie-break by name, so the twin now leads the ranking.
    assert [r.table_name for r in raced] == ["bad_0", "good_0", "good_1"]
    assert _signature(raced) == _signature(settled)
    # Everything else as usual: the other bads are still skipped.
    assert stats.cascade_skipped > 0
    assert stats.cascade_exact + stats.cascade_skipped == stats.shortlist_size


def test_cupid_scores_a_table_rewritten_after_the_index_refresh_from_the_store(
    semprop_lake, tmp_path, monkeypatch
):
    """Cupid's twin of the test above.  Every table has the query's three
    ``field_N`` columns, so Cupid ties them all and the name order puts
    ``bad_0`` first.  A second handle commits ``bad_0`` with other column
    names between the index refresh and ``table_meta``: the indexed sketch
    no longer carries the stored hash, so the candidate is built from the
    sketch the store now holds — not from the stale one, and not from a
    CSV — and leaves the top k at once."""
    source, query = semprop_lake
    store_path = tmp_path / source.name
    shutil.copy(source, store_path)
    renamed = Table(
        "bad_0", {f"other_{c}": [f"val_{c}_{r}" for r in range(_ROWS)] for c in range(3)}
    )
    renamed_csv = write_csv(renamed, tmp_path / "bad_0.csv")
    reads: list = []
    monkeypatch.setattr(lake_engine, "read_csv", lambda *args, **kwargs: reads.append(args))

    def rewrite_bad_0() -> None:
        with SketchStore(store_path) as second_handle:
            assert second_handle.add_table(renamed, source_path=renamed_csv)

    with _RacedSketchStore(
        store_path, read_only=True, writer=rewrite_bad_0
    ) as store, LakeDiscoveryEngine(matcher=create_matcher("cupid"), store=store) as engine:
        raced = engine.query(query, mode="joinable", top_k=TOP_K)
        assert store.writer is None  # the commit landed inside that query
        assert engine.index.sketch("bad_0").column_names[0] == "other_0"
        settled = engine.query(query, mode="joinable", top_k=TOP_K)
    assert [r.table_name for r in raced] == ["bad_1", "bad_10", "bad_11"]
    assert _signature(raced) == _signature(settled)
    assert reads == []
