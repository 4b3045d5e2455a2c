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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matcher_support import (
    _lakegen,
    engine_shortlist,
    reference_candidate_signals,
    reference_candidate_tables,
    reference_histogram_distance,
)

import repro.lake.engine as lake_engine
import repro.lake.index as lake_index
from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Table
from repro.data.types import DataType
from repro.discovery.cascade import candidate_signals
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.index import LakeIndex, LSHParams
from repro.lake.profiles import ColumnSketch, SketchConfig, TableSketch, sketch_table
from repro.lake.store import SketchStore
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.sketches.minhash import MinHashSignature
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
    priced = [c.table_name for c in tables if index.sketch(c.table_name).columns]
    seed = index.config.seed
    signals = candidate_signals(query, priced, *index.signature_block(priced), seed=seed)
    assert signals == {
        name: reference_candidate_signals(query, index.sketch(name).columns, seed=seed)
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
def column_sketches(draw, table_name: str, column_name: str) -> ColumnSketch:
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
        st.one_of(
            st.just(()),
            st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])] * _CONFIG.num_buckets),
        )
    )
    rows = draw(st.integers(0, 6))
    return ColumnSketch(
        table_name=table_name,
        column_name=column_name,
        data_type=draw(st.sampled_from(list(DataType))),
        minhash=MinHashSignature(signature, set_size),
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


@st.composite
def table_sketches(draw, name=None) -> TableSketch:
    name = name or draw(st.sampled_from(_TABLES))
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=3, unique=True))
    columns = tuple(draw(column_sketches(name, column)) for column in names)
    return TableSketch(name=name, content_hash="", num_rows=0, columns=columns)


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


def _one_column(table: str, name: str, signature, histogram) -> TableSketch:
    column = ColumnSketch(
        table_name=table,
        column_name=name,
        data_type=DataType.STRING,
        minhash=MinHashSignature(tuple(signature), 3),
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
    return TableSketch(name=table, content_hash="", num_rows=3, columns=(column,))


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
            candidate_signals(narrow, ["lake"], *index.signature_block(["lake"]))

    def test_histogram_buckets(self):
        index = LakeIndex(_CONFIG, LSHParams(bands=4, rows=2))
        index.add(_one_column("lake", "x", range(8), [0.5] * 4))
        query = _one_column("query", "y", range(8), [0.5] * 2)  # a band collision
        with pytest.raises(ValueError, match="buckets"):
            reference_candidate_tables(index, query)
        with pytest.raises(ValueError, match="buckets"):
            index.candidate_tables(query)
        with pytest.raises(ValueError, match="buckets"):
            reference_histogram_distance(query.columns[0], index.sketch("lake").columns[0])


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

    def counting(tables, config):
        builds.append(len(tables))
        return build(tables, config)

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

    def test_no_per_pair_sketch_calls(self, monkeypatch):
        index = LakeIndex()
        tables = _tables()
        for sketch in tables:
            index.add(sketch)
        calls = []
        jaccard = MinHashSignature.jaccard

        def counting(self, other):
            calls.append(1)
            return jaccard(self, other)

        monkeypatch.setattr(MinHashSignature, "jaccard", counting)
        candidates = index.candidate_tables(tables[0])
        names = [c.table_name for c in candidates]
        candidate_signals(tables[0], names, *index.signature_block(names))
        assert candidates and calls == []
        # The per-pair sketch methods are gone, not merely bypassed.
        for method in ("jaccard", "containment", "type_compatibility", "histogram_distance"):
            assert not hasattr(ColumnSketch, method)
        assert not hasattr(LakeIndex, "candidate_columns")

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
                engine.query(tables[0], top_k=2, cascade=True)
        (signals,) = calls
        assert len(shortlist) > 2
        assert set(signals) == {c.table_name for c in shortlist} - {"t0"}

