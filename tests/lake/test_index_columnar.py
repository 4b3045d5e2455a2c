"""The LSH refine pass and the cascade's pricing as array expressions.

``LakeIndex.candidate_tables`` refines every colliding (query column, lake
column) pair of a query in one pass over a columnar copy of the index, and
``cascade.candidate_signals`` prices a whole shortlist in one Jaccard block.
Both are pinned with ``==`` against the per-pair bodies they replaced
(``reference_candidate_tables`` / ``reference_candidate_signals`` in
``matcher_support``): rankings, scores, ``column_pairs`` in order, every
signal, and the ``lsh.*`` counter totals.  The work census is counted, not
timed.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matcher_support import (
    SketchColumn,
    _lakegen,
    engine_shortlist,
    lakebench_lake,
    reference_candidate_signals,
    reference_candidate_tables,
    reference_histogram_distance,
    sketch_columns,
    sketch_from_columns,
)

import repro.lake.engine as lake_engine
import repro.lake.index as lake_index
import repro.sketches.minhash as minhash
from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Table
from repro.data.types import DataType
from repro.discovery.cascade import candidate_signals
from repro.lake.build import build_from_paths
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.index import LakeIndex, LSHParams
from repro.lake.profiles import SketchConfig, TableSketch, sketch_table
from repro.lake.store import SketchStore
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import TelemetryRecorder


def _lsh_counters(recorder: TelemetryRecorder) -> dict[str, float]:
    counters = recorder.snapshot().counters
    return {name: value for name, value in counters.items() if name.startswith("lsh.")}


def _assert_matches_reference(index: LakeIndex, query: TableSketch, **kwargs) -> None:
    """``candidate_tables`` and the shortlist's signals equal the old bodies'."""
    new, old = TelemetryRecorder(), TelemetryRecorder()
    with telemetry.use(new):
        tables = index.candidate_tables(query, **kwargs)
    with telemetry.use(old):
        expected = reference_candidate_tables(index, query, **kwargs)
    assert tables == expected
    assert [c.score for c in tables] == [c.score for c in expected]
    assert _lsh_counters(new) == _lsh_counters(old)
    priced = [c.table_name for c in tables if index.sketch(c.table_name).num_columns]
    seed = index.config.seed
    signals = candidate_signals(query, priced, *index.signature_block(priced), seed=seed)
    assert signals == {
        name: reference_candidate_signals(query, index.sketch(name), seed=seed)
        for name in priced
    }


# --------------------------------------------------------------------- #
# lakegen lakes: every query, both lake shapes
# --------------------------------------------------------------------- #
_SHAPES = {
    "families": dict(tables=30, rows=20, groups=3, queries_per_group=2),
    "overlap": dict(tables=14, rows=20, groups=2, queries_per_group=2, cohort=4),
}


@pytest.fixture(scope="module", params=sorted(_SHAPES))
def lakegen_index(request, tmp_path_factory):
    module = _lakegen()
    root = tmp_path_factory.mktemp(request.param)
    module.generate(root, 5, module.LakeShape(request.param, **_SHAPES[request.param]))
    lake = [read_csv(path) for path in sorted((root / "lake").glob("*.csv"))]
    queries = [read_csv(path) for path in sorted((root / "queries").glob("*.csv"))]
    index = LakeIndex()
    for table in lake:
        index.add(sketch_table(table, index.config))
    # The lake's own tables query too: they are already in the index.
    sketches = [sketch_table(table, index.config, content_hash="") for table in queries + lake]
    return index, sketches


class TestEqualsTheReferenceOnLakegenLakes:
    @pytest.mark.parametrize("top_k", [None, 3])
    def test_every_query(self, lakegen_index, top_k):
        index, queries = lakegen_index
        for query in queries:
            _assert_matches_reference(index, query, top_k=top_k)

    def test_the_lakes_are_not_trivial(self, lakegen_index):
        index, queries = lakegen_index
        assert all(index.candidate_tables(query) for query in queries)


# --------------------------------------------------------------------- #
# random add / replace / remove sequences on one index
# --------------------------------------------------------------------- #
_CONFIG = SketchConfig(num_permutations=8, num_buckets=4)
_PARAMS = st.sampled_from(
    [
        LSHParams(bands=4, rows=2),
        LSHParams(bands=4, rows=2, name_match_score=0.0),
        LSHParams(bands=8, rows=1, max_histogram_distance=0.6, min_jaccard=0.3),
    ]
)
#: ``"A "`` normalises to ``"a"``: a name collision between different names.
_NAMES = ["a", "A ", "b", "c"]
_TABLES = ["t0", "t1", "t2", "q"]
_EMPTY_SIGNATURE = (2**32 - 1,) * _CONFIG.num_permutations


@st.composite
def column_sketches(draw, table_name: str, column_name: str) -> tuple[SketchColumn, tuple]:
    """A column and its signature; its histogram is as wide as the config's,
    as every histogram ``sketch_table`` makes is."""
    empty = draw(st.booleans()) and draw(st.booleans())  # a quarter are empty
    if empty:
        signature, set_size = _EMPTY_SIGNATURE, 0
    else:
        # Few distinct values, so signatures collide in bands and in part.
        signature = tuple(
            draw(st.lists(st.sampled_from([0, 1, 2, 2**32 - 1]), min_size=8, max_size=8))
        )
        set_size = draw(st.integers(1, 5))
    histogram = draw(
        st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])] * _CONFIG.num_buckets)
    )
    rows = draw(st.integers(0, 6))
    column = SketchColumn(
        table_name=table_name,
        column_name=column_name,
        data_type=draw(st.sampled_from(list(DataType))),
        set_size=set_size,
        histogram=histogram,
        row_count=rows,
        distinct_count=set_size,
        missing_count=draw(st.integers(0, 7)),
        mean=None,
        std=None,
        minimum=None,
        maximum=None,
        avg_length=1.0,
    )
    return column, signature


@st.composite
def table_sketches(draw, name=None) -> TableSketch:
    name = name or draw(st.sampled_from(_TABLES))
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=3, unique=True))
    pairs = [draw(column_sketches(name, column)) for column in names]
    width = _CONFIG.num_permutations if pairs else 0
    signatures = np.array([signature for _, signature in pairs], dtype=np.uint32)
    columns = [column for column, _ in pairs]
    return sketch_from_columns(name, "", 0, columns, signatures.reshape(len(pairs), width))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), table_sketches()),
        st.tuples(st.just("remove"), st.sampled_from(_TABLES)),
    ),
    min_size=1,
    max_size=8,
)


class TestEqualsTheReferenceUnderMutation:
    @settings(max_examples=150, deadline=None)
    @given(
        params=_PARAMS,
        steps=operations,
        queries=st.lists(table_sketches(), min_size=1, max_size=2),
    )
    def test_every_generation(self, params, steps, queries):
        """Queried after every step, so a stale columnar copy would show."""
        index = LakeIndex(_CONFIG, params)
        for action, argument in steps:
            if action == "add":
                index.add(argument)  # a second add of a name replaces it
            else:
                index.remove(argument)
            for query in queries:
                for top_k in (None, 1):
                    _assert_matches_reference(index, query, top_k=top_k)


# --------------------------------------------------------------------- #
# edge cases of the band arrays, each against the reference
# --------------------------------------------------------------------- #
def _rebuilt(index: LakeIndex, params: LSHParams) -> LakeIndex:
    """A *params* index over the sketches *index* holds."""
    rebuilt = LakeIndex(index.config, params)
    for name in sorted(index.table_names):
        rebuilt.add(index.sketch(name))
    return rebuilt


def _emptied(sketch: TableSketch) -> TableSketch:
    """*sketch* with every column's value set empty."""
    counts = sketch.counts.copy()
    counts[:, 0] = 0
    return replace(sketch, counts=counts, signatures=np.full_like(sketch.signatures, 2**32 - 1))


class TestEdgeCasesEqualTheReference:
    @pytest.mark.parametrize(
        "params",
        [
            LSHParams(bands=16, rows=4),  # the bands cover half the signature
            LSHParams(bands=128, rows=1),
            LSHParams(bands=32, rows=1, min_jaccard=0.0),
            LSHParams(name_match_score=0.0),
        ],
        ids=["16x4-of-128", "128x1", "32x1-no-jaccard-floor", "no-name-channel"],
    )
    def test_banding_shapes(self, lakegen_index, params):
        index, queries = lakegen_index
        rebuilt = _rebuilt(index, params)
        for query in queries:
            _assert_matches_reference(rebuilt, query, top_k=None)
        assert any(rebuilt.candidate_tables(query) for query in queries)

    def test_a_lake_of_empty_columns(self, lakegen_index):
        index, queries = lakegen_index
        empty = LakeIndex(index.config, index.params)
        for name in sorted(index.table_names):
            empty.add(_emptied(index.sketch(name)))
        assert empty._columnar().band_keys.size == 0  # nothing is bucketed
        for query in queries + [_emptied(queries[0])]:
            _assert_matches_reference(empty, query)
            assert empty.candidate_tables(query) == []

    def test_an_index_emptied_by_remove(self, lakegen_index):
        index, queries = lakegen_index
        emptied = _rebuilt(index, index.params)
        _assert_matches_reference(emptied, queries[0])
        for name in sorted(emptied.table_names):
            emptied.remove(name)
        assert len(emptied) == 0
        for query in queries:
            _assert_matches_reference(emptied, query)
            assert emptied.candidate_tables(query) == []

    def test_a_table_without_columns_beside_indexed_tables(self, lakegen_index):
        """A table without columns has a ``(0, 0)`` signature matrix: the
        columnar copy leaves it out, it is never a candidate, its signature
        block is empty, and as a query it finds nothing.  An index opened
        from a store holding its row (the decoded path) answers the same."""
        index, queries = lakegen_index
        empty = sketch_table(Table("no_columns", []), index.config)
        assert empty.signatures.shape == (0, 0)
        with_empty = _rebuilt(index, index.params)
        with_empty.add(empty)
        with SketchStore() as store:
            for name in sorted(with_empty.table_names):
                store.add_sketch(with_empty.sketch(name))
            reopened = LakeIndex.from_store(store)
        assert reopened.sketch("no_columns") == empty
        for probed in (with_empty, reopened):
            for query in queries:
                _assert_matches_reference(probed, query)
                assert probed.candidate_tables(query) == index.candidate_tables(query)
            signatures, offsets, max_values = probed.signature_block(["no_columns"])
            assert signatures.shape == (0, index.config.num_permutations)
            assert offsets.tolist() == [0, 0] and max_values == [0]
            assert probed.candidate_tables(empty) == []

    def test_an_engines_incremental_refresh(self, tmp_path):
        """Tables added and removed through the store between two probes:
        the engine's refreshed index equals the reference over what it
        holds, and an index opened afresh from the store."""
        rng = random.Random(9)
        words = [f"w{i}" for i in range(40)]

        def table(name: str) -> Table:
            return Table(name, {f"field_{c}": rng.sample(words, 15) for c in range(3)})

        with SketchStore() as store:
            for i in range(5):
                store.add_table(table(f"t{i}"))
            query = sketch_table(table("query"), store.config, content_hash="")
            with LakeDiscoveryEngine(matcher=SemPropMatcher(), store=store) as engine:
                index = engine.index
                _assert_matches_reference(index, query)
                store.remove_table("t1")
                store.add_table(table("t2"))  # replaced
                store.add_table(table("t5"))
                assert engine.index is index  # refreshed, not reopened
                assert index.table_names == {"t0", "t2", "t3", "t4", "t5"}
                _assert_matches_reference(index, query)
                _assert_matches_reference(index, query, top_k=2)
                reopened = LakeIndex.from_store(store)
                assert index.candidate_tables(query) == reopened.candidate_tables(query)


def _one_column(table: str, name: str, signature, histogram) -> TableSketch:
    column = SketchColumn(
        table_name=table,
        column_name=name,
        data_type=DataType.STRING,
        set_size=3,
        histogram=tuple(histogram),
        row_count=3,
        distinct_count=3,
        missing_count=0,
        mean=None,
        std=None,
        minimum=None,
        maximum=None,
        avg_length=1.0,
    )
    signatures = np.array([list(signature)], dtype=np.uint32)
    return sketch_from_columns(table, "", 3, [column], signatures)


class TestMismatchesStillRaise:
    def test_signature_width(self):
        index = LakeIndex(_CONFIG, LSHParams(bands=4, rows=2))
        index.add(_one_column("lake", "x", range(8), [0.5] * 4))
        narrow = _one_column("query", "x", range(4), [0.5] * 4)  # a name collision
        with pytest.raises(ValueError, match="permutations"):
            reference_candidate_tables(index, narrow)
        with pytest.raises(ValueError, match="permutations"):
            index.candidate_tables(narrow)
        with pytest.raises(ValueError, match="permutations"):
            candidate_signals(narrow, ["lake"], *index.signature_block(["lake"]), seed=_CONFIG.seed)

    def test_histogram_buckets(self):
        index = LakeIndex(_CONFIG, LSHParams(bands=4, rows=2))
        index.add(_one_column("lake", "x", range(8), [0.5] * 4))
        query = _one_column("query", "y", range(8), [0.5] * 2)  # a band collision
        with pytest.raises(ValueError, match="buckets"):
            reference_candidate_tables(index, query)
        with pytest.raises(ValueError, match="buckets"):
            index.candidate_tables(query)
        with pytest.raises(ValueError, match="buckets"):
            reference_histogram_distance(
                sketch_columns(query)[0], sketch_columns(index.sketch("lake"))[0]
            )

    def test_a_lake_sketch_of_another_width_is_refused(self):
        """The index stacks every histogram into one matrix as wide as its
        config's; a sketch that does not fit it is refused at ``add``, and
        so is one whose signatures are narrower, before any probe."""
        index = LakeIndex(_CONFIG, LSHParams(bands=4, rows=2))
        index.add(_one_column("lake", "x", range(8), [0.5] * 4))
        with pytest.raises(ValueError, match="buckets"):
            index.add(_one_column("narrow", "x", range(8), [0.5] * 2))
        with pytest.raises(ValueError, match="permutations"):
            index.add(_one_column("short", "x", range(4), [0.5] * 4))
        assert index.table_names == {"lake"}
        assert index.candidate_tables(_one_column("query", "x", range(8), [0.5] * 4))


class TestBuiltinSums:
    def test_each_row_equals_the_builtin_sum(self):
        """Both sides of Python 3.12's compensated ``sum`` of floats: rows
        where plain left-to-right addition and compensation disagree."""
        rng = random.Random(3)
        rows = [[1e16, 1.0, 1.0, 0.0], [0.1, 0.2, 0.3, 0.4]] + [
            [rng.choice([0.0, 0.1, 1 / 3, 0.7, 1e-9, 1e9]) for _ in range(4)] for _ in range(200)
        ]
        assert lake_index._builtin_sums(np.array(rows)).tolist() == [sum(row) for row in rows]

    def test_the_compensated_branch_is_cpython_3_12s_loop(self, monkeypatch):
        """On any interpreter: the array form equals the scalar Neumaier loop
        that ``sum`` of floats runs from Python 3.12 on."""

        def neumaier(row):
            total = compensation = 0.0
            for x in row:
                step = total + x
                if abs(total) >= abs(x):
                    compensation += (total - step) + x
                else:
                    compensation += (x - step) + total
                total = step
            return total + compensation if compensation else total

        rows = [[1e16, 1.0, 1.0, 0.0], [1.0, 1e100, 1.0, 0.0], [0.1] * 4]
        monkeypatch.setattr(lake_index, "_COMPENSATED_SUM", True)
        assert lake_index._builtin_sums(np.array(rows)).tolist() == [neumaier(r) for r in rows]
        assert neumaier(rows[0]) != 1e16  # the case plain addition gets wrong


# --------------------------------------------------------------------- #
# the work census
# --------------------------------------------------------------------- #
@pytest.fixture
def counted_builds(monkeypatch):
    builds = []
    build = lake_index._Columnar.build

    def counting(tables, *args):
        builds.append(len(tables))
        return build(tables, *args)

    monkeypatch.setattr(lake_index._Columnar, "build", staticmethod(counting))
    return builds


def _tables(count: int = 4):
    rng = random.Random(7)
    words = [f"w{i}" for i in range(30)]
    return [
        sketch_table(
            Table(f"t{i}", {name: rng.sample(words, 12) for name in ("city", f"field_{i}")})
        )
        for i in range(count)
    ]


class TestWorkCensus:
    def test_one_build_per_index_generation(self, counted_builds):
        index = LakeIndex()
        tables = _tables()
        for sketch in tables:
            index.add(sketch)
        for _ in range(3):
            index.candidate_tables(tables[0])
            index.signature_block(["t1", "t2"])
        assert counted_builds == [4]
        index.remove("t3")
        index.candidate_tables(tables[0])
        index.candidate_tables(tables[1])
        assert counted_builds == [4, 3]
        index.add(tables[3])
        index.signature_block(["t3"])
        index.candidate_tables(tables[0])
        assert counted_builds == [4, 3, 4]
        index.remove("missing")  # not a change: the copy stays
        index.candidate_tables(tables[0])
        assert counted_builds == [4, 3, 4]

    def test_adds_after_an_open_rebuild_the_bands_once(self, counted_builds):
        tables = _tables(6)
        with SketchStore() as store:
            for sketch in tables[:3]:
                store.add_sketch(sketch)
            index = LakeIndex.from_store(store)
        assert counted_builds == []  # an open bands nothing
        index.candidate_tables(tables[0])
        assert counted_builds == [3]
        for sketch in tables[3:]:
            index.add(sketch)
        assert counted_builds == [3]
        index.candidate_tables(tables[0])
        index.candidate_tables(tables[4])
        assert counted_builds == [3, 6]
        assert len(index._columnar().band_keys) == index.params.bands * 6 * 2

    def test_an_open_and_its_first_probe_make_linear_calls(self, tmp_path):
        """``from_store`` plus the first probe on the test ``families`` lake
        make a bounded number of Python-level calls per table and column,
        not a few per column and band: filling dict buckets one band key at
        a time made about 165 per table or column here."""
        lake = lakebench_lake(tmp_path)
        paths = sorted((lake / "lake").glob("*.csv"))
        with SketchStore() as store:
            build_from_paths(store, paths)
            query = read_csv(sorted((lake / "queries").glob("*.csv"))[0])
            sketch = sketch_table(query, store.config, content_hash="")
            units = len(paths) + sum(table.num_columns for table in store)
            calls = []

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    calls.append(event)

            sys.setprofile(profile)
            try:
                candidates = LakeIndex.from_store(store).candidate_tables(sketch)
            finally:
                sys.setprofile(None)
        assert candidates
        assert len(calls) <= 40 * units, (len(calls), units)

    def test_an_open_and_its_first_probe_allocate_per_column_not_per_value(self, tmp_path):
        """The memory blocks ``from_store`` plus the first probe leave
        allocated on the test ``families`` lake are bounded per table and
        column: a sketch row decodes to a few arrays per table (signatures
        and histograms as views of its bytes), and no column becomes an
        object of its own.  Decoding every signature value into a Python int
        held about 145 blocks per table or column here (128 values a column),
        an object per column about 22; the arrays hold about 7."""
        lake = lakebench_lake(tmp_path)
        paths = sorted((lake / "lake").glob("*.csv"))
        with SketchStore() as store:
            build_from_paths(store, paths)
            query = read_csv(sorted((lake / "queries").glob("*.csv"))[0])
            sketch = sketch_table(query, store.config, content_hash="")
            units = len(paths) + sum(table.num_columns for table in store)
            LakeIndex.from_store(store).candidate_tables(sketch)  # first-use caches
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot()
                index = LakeIndex.from_store(store)
                candidates = index.candidate_tables(sketch)
                after = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        retained = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
        blocks = sum(stat.count_diff for stat in retained)
        assert candidates and len(index) == len(paths)
        assert blocks <= 11 * units, (blocks, units)

    def test_no_per_pair_sketch_calls(self):
        index = LakeIndex()
        tables = _tables()
        for sketch in tables:
            index.add(sketch)
        candidates = index.candidate_tables(tables[0])
        names = [c.table_name for c in candidates]
        block = index.signature_block(names)
        signals = candidate_signals(tables[0], names, *block, seed=index.config.seed)
        assert candidates and set(signals) == set(names)
        # The per-pair sketch objects and methods are gone, not merely bypassed:
        # a signature is a row of its table's matrix and nothing else.
        for name in ("MinHashSignature", "minhash_signature", "estimate_jaccard"):
            assert not hasattr(minhash, name)
        # Nor is there a per-column object: a sketch is its arrays.
        assert not hasattr(TableSketch, "column") and not hasattr(TableSketch, "columns")
        assert not hasattr(LakeIndex, "candidate_columns")
        assert not hasattr(index, "_name_buckets")

    def test_a_priced_query_prices_its_shortlist_in_one_call(self, monkeypatch, tmp_path):
        calls = []
        real = lake_engine.candidate_signals

        def recording(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(lake_engine, "candidate_signals", recording)
        rng = random.Random(5)
        words = [f"w{i}" for i in range(40)]
        tables = [
            Table(f"t{i}", {f"field_{c}": rng.sample(words, 15) for c in range(3)})
            for i in range(6)
        ]
        with SketchStore() as store:
            for table in tables:
                path = write_csv(table, tmp_path / f"{table.name}.csv")
                store.add_table(table, source_path=path)
            with LakeDiscoveryEngine(matcher=SemPropMatcher(), store=store) as engine:
                shortlist = engine_shortlist(engine, tables[0], top_k=2)
                engine.query(tables[0], top_k=2)
        (signals,) = calls
        assert len(shortlist) > 2
        assert set(signals) == {c.table_name for c in shortlist} - {"t0"}

