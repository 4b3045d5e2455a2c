"""Tests for column/table sketches."""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matcher_support import (
    LEGACY_JSON_SKETCH_ROW,
    SketchColumn,
    lakebench_lake,
    reference_column_scan,
    reference_histogram_distance,
    reference_profile_column,
    reference_semprop_signatures,
    reference_sketch_table,
    reference_table_content_hash,
    sketch_columns,
    sketch_from_columns,
)

from repro.data import fingerprint as content_fingerprint
from repro.data import sections
from repro.data.csv_io import read_csv
from repro.data.profiling import profile_column
from repro.data.table import Column, ColumnScan, Table
from repro.data.types import DataType
from repro.discovery import prepared_codec
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths
from repro.lake.profiles import (
    SketchConfig,
    TableSketch,
    sketch_table,
    table_content_hash,
)
from repro.lake.store import SketchStore
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.sketches import minhash
from repro.sketches.minhash import (
    DEFAULT_SEED,
    _permutation_parameters,
    minhash_signatures_scalar,
)


def _column(sketch: TableSketch, name: str) -> SketchColumn:
    (column,) = [column for column in sketch_columns(sketch) if column.column_name == name]
    return column


class TestSketchTable:
    def test_sketch_matches_single_column_minhash(self, clients_table):
        sketch = sketch_table(clients_table)
        config = SketchConfig()
        for row, column in enumerate(clients_table.columns):
            signatures, set_sizes = minhash_signatures_scalar(
                [column.non_missing()],
                num_permutations=config.num_permutations,
                seed=config.seed,
            )
            assert sketch.signatures[row].tolist() == signatures[0].tolist()
            assert sketch.counts[row, 0] == set_sizes[0]

    def test_signatures_are_one_read_only_uint32_matrix(self, clients_table):
        sketch = sketch_table(clients_table)
        assert sketch.signatures.dtype == np.uint32
        assert sketch.signatures.shape == (clients_table.num_columns, 128)
        assert not sketch.signatures.flags.writeable
        decoded = TableSketch.from_bytes(sketch.to_bytes())
        assert decoded.signatures.dtype == np.uint32
        assert not decoded.signatures.flags.writeable
        with pytest.raises(ValueError, match="one signatures row per column"):
            replace(sketch, signatures=sketch.signatures[:1])

    @pytest.mark.parametrize(
        "field", ["types", "signatures", "histograms", "counts", "stats", "present"]
    )
    def test_every_array_holds_a_row_per_column(self, clients_table, field):
        """A sketch whose arrays disagree on its columns is never built: each
        array needs a row per column, of the width its kind has."""
        sketch = sketch_table(clients_table)
        array = getattr(sketch, field)
        with pytest.raises(ValueError, match=f"one {field} row per column"):
            replace(sketch, **{field: array[:-1]})
        if array.ndim == 2:
            with pytest.raises(ValueError, match=f"one {field} row per column"):
                replace(sketch, **{field: array[:, None]})

    def test_sketch_carries_profile_and_type(self, clients_table):
        sketch = sketch_table(clients_table)
        po = _column(sketch, "PO")
        assert po.data_type is DataType.INTEGER
        assert po.row_count == 6
        assert po.distinct_count == 6
        assert po.minimum == 31234
        country = _column(sketch, "Country")
        assert country.data_type is DataType.STRING
        assert country.distinct_count == 4

    def test_histograms_share_the_fixed_domain(self, clients_table, offices_table):
        config = SketchConfig(num_buckets=8)
        a = _column(sketch_table(clients_table, config), "Country")
        b = _column(sketch_table(offices_table, config), "Cntr")
        assert len(a.histogram) == len(b.histogram) == 8
        assert reference_histogram_distance(a, b) <= 2.0
        assert reference_histogram_distance(a, a) == 0.0

    def test_identical_value_sets_have_identical_sketches(self):
        a = sketch_table(Table("a", [Column("x", ["p", "q", "r"])]))
        b = sketch_table(Table("b", [Column("y", ["r", "q", "p"])]))
        assert a.signatures.tolist() == b.signatures.tolist()
        assert a.histograms.tolist() == b.histograms.tolist()


#: A statistic: unset, NaN, ±inf or any other float.
_STATS = st.none() | st.floats()


def _column_sketches(table_name: str, buckets: int):
    """Columns of one table whose histograms are *buckets* wide."""
    return st.builds(
        SketchColumn,
        table_name=st.just(table_name),
        column_name=st.text(max_size=8),
        data_type=st.sampled_from(DataType),
        set_size=st.integers(0, 10**6),
        histogram=st.lists(st.floats(), min_size=buckets, max_size=buckets).map(tuple),
        row_count=st.integers(0, 10**6),
        distinct_count=st.integers(0, 10**6),
        missing_count=st.integers(0, 10**6),
        mean=_STATS,
        std=_STATS,
        minimum=_STATS,
        maximum=_STATS,
        avg_length=_STATS,
    )


@st.composite
def _table_sketches(draw) -> TableSketch:
    name = draw(st.text(max_size=8))
    buckets = draw(st.integers(0, 16))
    columns = draw(st.lists(_column_sketches(name, buckets), max_size=12))
    width = draw(st.integers(0, 128)) if columns else 0
    signature = st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width)
    rows = draw(st.lists(signature, min_size=len(columns), max_size=len(columns)))
    return sketch_from_columns(
        name,
        draw(st.text(alphabet="0123456789abcdef", max_size=64)),
        draw(st.integers(0, 10**6)),
        columns,
        np.array(rows, dtype=np.uint32).reshape(len(columns), width),
    )


def _ragged_row(widths, buckets) -> bytes:
    """A well-framed row of three columns declaring signature *widths* and
    histogram *buckets*: its sections hold the values those add up to."""
    entries = [
        [name, DataType.STRING.value, 1, width, size, 1, 1, 0, None, None, None, None, 1.0]
        for name, width, size in zip("abc", widths, buckets)
    ]
    skeleton = {"name": "t", "content_hash": "", "rows": 1, "columns": entries}
    signatures = np.arange(sum(widths), dtype="<u4").tobytes()
    histograms = np.zeros(sum(buckets), dtype="<f8").tobytes()
    return sections.pack(b"SKCH", skeleton, [signatures, histograms])


#: Signature widths 2, 3 and 1: six values, which are also three rows of
#: the first width.  Then histogram widths 3, 2 and 4: nine values, which
#: are also three rows of the first width.
_RAGGED_ROW = _ragged_row((2, 3, 1), (0, 0, 0))
_RAGGED_BUCKETS_ROW = _ragged_row((2, 2, 2), (3, 2, 4))


class TestSerialisation:
    @settings(max_examples=200, deadline=None)
    @given(_table_sketches())
    def test_bytes_round_trip(self, sketch):
        """Empty histograms, no columns, non-ASCII names and stats that are
        unset, NaN or infinite all survive a row, and a decoded row
        re-encodes to the same bytes."""
        data = sketch.to_bytes()
        assert TableSketch.from_bytes(data) == sketch
        assert TableSketch.from_bytes(data).to_bytes() == data

    def test_every_gate_lake_sketch_round_trips(self, tmp_path):
        paths = [
            path
            for profile in ("families", "overlap")
            for path in sorted(lakebench_lake(tmp_path / profile, profile).glob("*/*.csv"))
        ]
        assert len(paths) == 17
        for path in paths:
            sketch = sketch_table(read_csv(path))
            data = sketch.to_bytes()
            assert TableSketch.from_bytes(data) == sketch
            assert TableSketch.from_bytes(data).to_bytes() == data

    def test_unset_nan_and_infinite_stats_round_trip_apart(self):
        """A ``None`` stays unset and a NaN stays a set NaN: the mask, not
        the value, tells them apart, and ±inf survive as they are."""
        values = (None, math.nan, math.inf, -math.inf, -0.0)
        sketch = sketch_from_columns(
            "t", "", 1, [SketchColumn("t", "x", DataType.FLOAT, 1, (1.0,), 1, 1, 0, *values)],
            np.zeros((1, 2), np.uint32),
        )  # fmt: skip
        decoded = TableSketch.from_bytes(sketch.to_bytes())
        assert decoded == sketch
        assert decoded.present.tolist() == [[False, True, True, True, True]]
        (column,) = sketch_columns(decoded)
        assert column.mean is None and math.isnan(column.std)
        assert (column.minimum, column.maximum) == (math.inf, -math.inf)
        assert math.copysign(1.0, column.avg_length) == -1.0
        assert decoded != replace(decoded, present=np.ones((1, 5), bool))

    def test_config_round_trip(self):
        config = SketchConfig(num_permutations=64, seed=3, num_buckets=4)
        assert SketchConfig.from_dict(config.as_dict()) == config

    def test_table_sketch_bytes_are_pinned(self):
        """``to_bytes`` is a sketch-store row and a published blob at once:
        changing what it emits orphans every store and artifact in the
        field, so it has to be done on purpose — bump the sketch store's
        schema version (and ``MANIFEST_FORMAT`` if old artifacts stop
        decoding) together with this digest."""

        def column(name, data_type, set_size, histogram, missing, stats):
            return SketchColumn(
                table_name="golden",
                column_name=name,
                data_type=data_type,
                set_size=set_size,
                histogram=histogram,
                row_count=3,
                distinct_count=set_size,
                missing_count=missing,
                mean=stats[0],
                std=stats[1],
                minimum=stats[2],
                maximum=stats[3],
                avg_length=stats[4],
            )

        sketch = sketch_from_columns(
            "golden",
            "c0ffee",
            3,
            [
                column("amount", DataType.FLOAT, 3,
                       (0.5, 0.25, 0.25), 0, (2.5, 0.5, 2.0, 3.0, 3.0)),
                column("näme", DataType.STRING, 2,
                       (1.0, 0.0, 0.0), 1, (None, None, None, None, 4.5)),
            ],
            np.array([(3, 1, 4, 1, 5), (9, 2, 6, 5, 3)], dtype=np.uint32),
        )  # fmt: skip
        data = sketch.to_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "799badadd5de5f528bbe9046196ae85fdff70f72c1a6f8e916fbf0289b23d852"
        )
        assert TableSketch.from_bytes(data) == sketch

    @pytest.mark.parametrize(
        "garbage",
        [
            b"\xde\xad\xbe\xef", b"[]", b'{"tampered": true}', b'{"name": "t"}', "text",
            pytest.param(_RAGGED_ROW, id="ragged-widths"),
            pytest.param(_RAGGED_BUCKETS_ROW, id="ragged-buckets"),
        ],
    )  # fmt: skip
    def test_from_bytes_refuses_anything_else_with_value_error(self, garbage):
        with pytest.raises(ValueError, match="not a table sketch"):
            TableSketch.from_bytes(garbage)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob, skeleton, sig, hist: b"PREP" + blob[4:],
            lambda blob, skeleton, sig, hist: blob[:20],
            lambda blob, skeleton, sig, hist: blob[:-5],
            lambda blob, skeleton, sig, hist: sections.pack(b"SKCH", skeleton, [sig[:-4], hist]),
            lambda blob, skeleton, sig, hist: sections.pack(b"SKCH", skeleton, [sig, hist, b""]),
            lambda blob, skeleton, sig, hist: LEGACY_JSON_SKETCH_ROW,
        ],
        ids=[
            "bad-magic", "short-skeleton", "short-section", "size-disagrees-with-widths",
            "unreferenced-trailing-section", "json-row",
        ],
    )  # fmt: skip
    def test_damaged_rows_are_refused(self, clients_table, damage):
        blob = sketch_table(clients_table).to_bytes()
        skeleton, (sig, hist) = sections.unpack(b"SKCH", blob)
        with pytest.raises(ValueError, match="not a table sketch"):
            TableSketch.from_bytes(damage(blob, skeleton, bytes(sig), bytes(hist)))


class TestContentHash:
    def test_hash_is_deterministic(self, clients_table):
        assert table_content_hash(clients_table) == table_content_hash(clients_table)

    def test_hashed_once_per_table_and_never_pickled(self, clients_table, monkeypatch):
        table = Table(clients_table.name, clients_table.columns)
        unhashed = pickle.dumps(table)
        digest = table_content_hash(table)
        assert pickle.dumps(table) == unhashed  # the memo stays out of pickles
        monkeypatch.setattr(content_fingerprint, "hashlib", SimpleNamespace(blake2b=None))
        assert table_content_hash(table) == digest  # served from the memo
        with pytest.raises(TypeError):
            table_content_hash(pickle.loads(unhashed))  # a copy hashes afresh

    def test_hash_detects_value_changes(self, clients_table):
        changed = Table(
            clients_table.name,
            {**clients_table.to_dict(), "Country": ["USA", "China", "USA", "UK", "China", "Peru"]},
        )
        assert table_content_hash(changed) != table_content_hash(clients_table)

    def test_hash_distinguishes_ambiguous_serialisations(self):
        # One value 'a\x01b' vs two values 'a','b' must not collide.
        one = Table("t", [Column("x", ["a\x01b"], data_type=DataType.STRING)])
        two = Table("t", [Column("x", ["a", "b"], data_type=DataType.STRING)])
        assert table_content_hash(one) != table_content_hash(two)
        # None vs any literal sentinel-looking string must not collide.
        missing = Table("t", [Column("x", [None], data_type=DataType.STRING)])
        literal = Table("t", [Column("x", ["\x1f"], data_type=DataType.STRING)])
        assert table_content_hash(missing) != table_content_hash(literal)
        # Same flat field stream, different shape: values in a tall column
        # emulating a second column's (name, dtype, values) fields.
        tall = Table(
            "t", [Column("x", ["a", "y", "string", "z"], data_type=DataType.STRING)]
        )
        wide = Table(
            "t",
            [
                Column("x", ["a"], data_type=DataType.STRING),
                Column("y", ["z"], data_type=DataType.STRING),
            ],
        )
        assert table_content_hash(tall) != table_content_hash(wide)

    def test_hash_detects_renames_but_not_table_name(self, clients_table):
        renamed_column = clients_table.rename_columns({"PO": "PostOffice"})
        assert table_content_hash(renamed_column) != table_content_hash(clients_table)
        renamed_table = clients_table.rename("other")
        assert table_content_hash(renamed_table) == table_content_hash(clients_table)

    def test_hash_is_pinned_and_equals_the_per_cell_reference(self):
        """``None``, mixed types and non-ASCII cells and names: the digest the
        per-cell body computed, and still computes."""
        table = Table(
            "odd",
            [
                Column("mixed", [None, 1, 2.5, True, "é", "", "None", -0.0]),
                Column("ünï ç", ["ß", None, "x" * 300, "a,b", "\n", 7, "日本", " NA "]),
            ],
        )
        assert table_content_hash(table) == reference_table_content_hash(table)
        assert table_content_hash(table) == "180425213c71b9e88c12c159a07002ee"
        assert table_content_hash(Table("t", [])) == reference_table_content_hash(Table("t", []))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_hash_equals_the_per_cell_reference(self, data):
        table = data.draw(_adversarial_tables())
        assert table_content_hash(table) == reference_table_content_hash(table)


#: SHA-256 over, per CSV of the test ``families`` / ``overlap`` lake in path
#: order, its ``sketch_table`` row and its SemProp prepared rows under
#: :data:`_PINNED_SEMPROPS`; taken before the column scan fed both.
_LAKE_ROW_DIGESTS = {
    "families": "e778446a285b4461af5d300592b8a14aaa9a6fd7c364360a6a3acc0051a9c547",
    "overlap": "989cd23c167c3863a9717d6de3aa93b2a649e5c2edd8d649a8162215c4014d2d",
}
#: The default SemProp, which reuses every 30-row column's scan, and one
#: whose 16-cell sample makes it hash its own truncated value sets.
_PINNED_SEMPROPS = (SemPropMatcher(), SemPropMatcher(num_permutations=16, sample_size=16))
#: One SemProp whose 4-cell sample most adversarial columns overflow, and
#: one whose default sample none does.
_ADVERSARIAL_SEMPROPS = (
    SemPropMatcher(num_permutations=16, sample_size=4),
    SemPropMatcher(num_permutations=16),
)

#: Cells whose count-based shortcuts drift: equal values that render apart
#: (``1``, ``1.0``, ``True``; ``0``, ``0.0``, ``-0.0``, ``False``), NaN
#: objects (each draw a new one), missing tokens in odd case and spacing,
#: and short strings that can spell numbers.
_CELLS = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.5, -7, None]),
    st.builds(float, st.just("nan")),
    st.sampled_from(["NA", " na ", "N/A", "nUlL", "  ", "", "-", "?", "None", " NaN ", "Null"]),
    st.text(alphabet="aAé ß1.-", max_size=4),
)


class _Spelled:
    """A cell that is no missing value but renders as a missing token."""

    def __str__(self) -> str:
        return " NA "


#: Cells of other types than ``str``, ``int``, ``float`` and ``bool``: a NaN
#: and a number of a float subclass, a ``str`` subclass spelling a token.
_UNPLAIN_CELLS = [np.float64("nan"), np.float64(-0.0), type("Text", (str,), {})(" null "), _Spelled()]


@st.composite
def _adversarial_tables(draw) -> Table:
    """0-4 columns of 0-12 cells (a table without columns, empty and
    all-missing columns among them), typed by inference or by a drawn type."""
    rows = draw(st.integers(0, 12))
    columns = []
    for index in range(draw(st.integers(0, 4))):
        values = draw(
            st.lists(_CELLS, min_size=rows, max_size=rows)
            | st.lists(st.sampled_from([None, "NA", " n/a "]), min_size=rows, max_size=rows)
        )
        data_type = draw(st.none() | st.sampled_from(DataType))
        columns.append(Column(f"c{index}", values, data_type))
    return Table("t", columns)


class TestColumnScan:
    """A column's memoised scan feeds its sketch and SemProp's prepare: the
    rows stay those of the per-cell bodies kept in ``matcher_support``."""

    @pytest.mark.parametrize("profile", sorted(_LAKE_ROW_DIGESTS))
    def test_lake_rows_are_pinned_and_equal_the_references(self, profile, tmp_path):
        root = lakebench_lake(tmp_path / "gate", profile)
        digest = hashlib.sha256()
        for path in sorted(root.glob("*/*.csv")):
            table = read_csv(path)
            row = sketch_table(table).to_bytes()
            reference = reference_sketch_table(table, content_hash=table_content_hash(table))
            assert row == reference.to_bytes()
            digest.update(row)
            for matcher in _PINNED_SEMPROPS:
                prepared = matcher.prepare(table)
                signatures, set_sizes = reference_semprop_signatures(matcher, table)
                assert np.array_equal(prepared.payload["signatures"], signatures)
                assert np.array_equal(prepared.payload["set_sizes"], set_sizes)
                digest.update(prepared_codec.encode(prepared))
        assert digest.hexdigest() == _LAKE_ROW_DIGESTS[profile]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_adversarial_columns_sketch_and_prepare_as_the_references(self, data):
        table = data.draw(_adversarial_tables())
        config = SketchConfig(num_permutations=16, num_buckets=4)
        assert sketch_table(table, config, "").to_bytes() == (
            reference_sketch_table(table, config).to_bytes()
        )
        for column in table.columns:
            assert profile_column(column) == reference_profile_column(column)
        for matcher in _ADVERSARIAL_SEMPROPS:
            prepared = matcher.prepare(table)
            signatures, set_sizes = reference_semprop_signatures(matcher, table)
            assert prepared.payload["signatures"].tolist() == signatures.tolist()
            assert prepared.payload["set_sizes"].tolist() == set_sizes.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_CELLS, st.sampled_from(_UNPLAIN_CELLS)), max_size=16))
    def test_scan_equals_the_per_value_reference(self, cells):
        """Plain cells are missing exactly when their normalised string is a
        missing token; any other cell still asks ``is_missing``."""
        scan, expected = Column("c", cells).scan(), reference_column_scan(Column("c", cells))
        for field, got, want in zip(ColumnScan._fields, scan, expected):
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.tolist()) == (want.dtype, want.tolist()), field
            else:
                assert (type(got), got) == (type(want), want), field

    def test_a_prepared_build_digests_each_distinct_value_once(self, tmp_path, monkeypatch):
        """A ``build_from_paths(prepare=(store, SemProp))`` task hashes each
        column's distinct normalised values once, for its sketch and its
        prepared row together (it hashed them once for each)."""
        paths = sorted((lakebench_lake(tmp_path / "gate") / "lake").glob("*.csv"))
        digested = []

        def counting_blake2b(data, **kwargs):
            digested.append(bytes(data))
            return hashlib.blake2b(data, **kwargs)

        monkeypatch.setattr(minhash, "hashlib", SimpleNamespace(blake2b=counting_blake2b))
        with SketchStore(tmp_path / "lake.sketches") as store, PreparedStore() as prepared:
            report = build_from_paths(store, paths, prepare=(prepared, SemPropMatcher()))
        monkeypatch.undo()
        assert report.prepared == len(paths)
        expected = [
            {str(value).strip().lower() for value in column.non_missing()}
            for path in paths
            for column in read_csv(path).columns
        ]
        assert len(digested) == sum(map(len, expected))

    def test_permutation_parameters_are_drawn_once_per_width_and_seed(self, clients_table):
        _permutation_parameters.cache_clear()
        for _ in range(3):
            sketch_table(clients_table)
            SemPropMatcher().prepare(clients_table)
        sketch_table(clients_table, SketchConfig(num_permutations=16))
        assert _permutation_parameters.cache_info().misses == 2
        multipliers, offsets = _permutation_parameters(128, DEFAULT_SEED)
        assert not multipliers.flags.writeable and not offsets.flags.writeable

    def test_the_scan_is_memoised(self, clients_table):
        column = clients_table.columns[0]
        assert column.scan() is column.scan()


    def test_a_column_longer_than_the_sample_digests_only_its_sample(self, monkeypatch):
        """SemProp's prepare never scans a column longer than ``sample_size``:
        its cost stays bounded by the sample, whatever the column holds."""
        table = Table("long", {"code": [f"v{i % 40}" for i in range(60)]})
        matcher = SemPropMatcher(num_permutations=16, sample_size=10)
        digested = []

        def counting_blake2b(data, **kwargs):
            digested.append(bytes(data))
            return hashlib.blake2b(data, **kwargs)

        monkeypatch.setattr(minhash, "hashlib", SimpleNamespace(blake2b=counting_blake2b))
        prepared = matcher.prepare(table)
        monkeypatch.undo()
        assert sorted(digested) == sorted(f"v{i}".encode() for i in range(10))
        signatures, set_sizes = reference_semprop_signatures(matcher, table)
        assert np.array_equal(prepared.payload["signatures"], signatures)
        assert np.array_equal(prepared.payload["set_sizes"], set_sizes)

    def test_a_pickled_column_carries_no_memo(self, clients_table):
        column = clients_table.columns[0]
        column.scan(), column.unique_values()
        unscanned = Column(column.name, column.values, column.data_type, column.table_name)
        assert pickle.dumps(column) == pickle.dumps(unscanned)
        restored = pickle.loads(pickle.dumps(column))
        assert (restored.name, restored.values, restored.data_type, restored.table_name) == (
            column.name, column.values, column.data_type, column.table_name
        )
        assert restored.scan().hashes.tolist() == column.scan().hashes.tolist()
