"""Tests for column/table sketches."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matcher_support import LEGACY_JSON_SKETCH_ROW, lakebench_lake, reference_histogram_distance

from repro.data import sections
from repro.data.csv_io import read_csv
from repro.data.table import Column, Table
from repro.data.types import DataType
from repro.lake.profiles import (
    ColumnSketch,
    SketchConfig,
    TableSketch,
    sketch_table,
    table_content_hash,
)
from repro.sketches.minhash import MinHashSignature, minhash_signature


class TestSketchTable:
    def test_sketch_matches_single_column_minhash(self, clients_table):
        sketch = sketch_table(clients_table)
        config = SketchConfig()
        for column in clients_table.columns:
            expected = minhash_signature(
                column.non_missing(),
                num_permutations=config.num_permutations,
                seed=config.seed,
            )
            assert sketch.column(column.name).minhash == expected

    def test_sketch_carries_profile_and_type(self, clients_table):
        sketch = sketch_table(clients_table)
        po = sketch.column("PO")
        assert po.data_type is DataType.INTEGER
        assert po.row_count == 6
        assert po.distinct_count == 6
        assert po.minimum == 31234
        country = sketch.column("Country")
        assert country.data_type is DataType.STRING
        assert country.distinct_count == 4

    def test_histograms_share_the_fixed_domain(self, clients_table, offices_table):
        config = SketchConfig(num_buckets=8)
        a = sketch_table(clients_table, config).column("Country")
        b = sketch_table(offices_table, config).column("Cntr")
        assert len(a.histogram) == len(b.histogram) == 8
        assert reference_histogram_distance(a, b) <= 2.0
        assert reference_histogram_distance(a, a) == 0.0

    def test_identical_value_sets_have_identical_sketches(self):
        a = Table("a", [Column("x", ["p", "q", "r"])])
        b = Table("b", [Column("y", ["r", "q", "p"])])
        sa = sketch_table(a).column("x")
        sb = sketch_table(b).column("y")
        assert sa.minhash.jaccard(sb.minhash) == 1.0
        assert sa.histogram == sb.histogram

    def test_unknown_column_raises(self, clients_table):
        with pytest.raises(KeyError):
            sketch_table(clients_table).column("nope")


def _column_sketches(table_name: str, width: int):
    """Columns of one table: one signature *width*, any histogram length."""
    stat = st.none() | st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf])
    return st.builds(
        ColumnSketch,
        table_name=st.just(table_name),
        column_name=st.text(max_size=8),
        data_type=st.sampled_from(DataType),
        minhash=st.builds(
            MinHashSignature,
            st.tuples(*[st.integers(0, 2**32 - 1)] * width),
            st.integers(0, 10**6),
        ),
        histogram=st.lists(st.floats(allow_nan=False), max_size=16).map(tuple),
        row_count=st.integers(0, 10**6),
        distinct_count=st.integers(0, 10**6),
        missing_count=st.integers(0, 10**6),
        mean=stat,
        std=stat,
        minimum=stat,
        maximum=stat,
        avg_length=st.floats(allow_nan=False),
    )


@st.composite
def _table_sketches(draw) -> TableSketch:
    name = draw(st.text(max_size=8))
    width = draw(st.integers(0, 128))
    return TableSketch(
        name=name,
        content_hash=draw(st.text(alphabet="0123456789abcdef", max_size=64)),
        num_rows=draw(st.integers(0, 10**6)),
        columns=tuple(draw(st.lists(_column_sketches(name, width), max_size=12))),
    )


class TestSerialisation:
    @settings(max_examples=200, deadline=None)
    @given(_table_sketches())
    def test_bytes_round_trip(self, sketch):
        """Ragged or empty histograms, no columns, non-ASCII names and
        infinite stats all survive a row, and a decoded row re-encodes to
        the same bytes."""
        data = sketch.to_bytes()
        assert TableSketch.from_bytes(data) == sketch
        assert TableSketch.from_bytes(data).to_bytes() == data

    def test_every_gate_lake_sketch_round_trips(self, tmp_path):
        root = lakebench_lake(tmp_path / "gate")
        paths = sorted(root.glob("*/*.csv"))
        assert len(paths) == 8
        for path in paths:
            sketch = sketch_table(read_csv(path))
            assert TableSketch.from_bytes(sketch.to_bytes()) == sketch

    def test_a_column_of_another_table_is_not_encoded(self, clients_table):
        sketch = sketch_table(clients_table)
        with pytest.raises(ValueError, match="another table's column"):
            TableSketch("renamed", sketch.content_hash, sketch.num_rows, sketch.columns).to_bytes()

    def test_config_round_trip(self):
        config = SketchConfig(num_permutations=64, seed=3, num_buckets=4)
        assert SketchConfig.from_dict(config.as_dict()) == config

    def test_table_sketch_bytes_are_pinned(self):
        """``to_bytes`` is a sketch-store row and a published blob at once:
        changing what it emits orphans every store and artifact in the
        field, so it has to be done on purpose — bump the sketch store's
        schema version (and ``MANIFEST_FORMAT`` if old artifacts stop
        decoding) together with this digest."""

        def column(name, data_type, signature, set_size, histogram, missing, stats):
            return ColumnSketch(
                table_name="golden",
                column_name=name,
                data_type=data_type,
                minhash=MinHashSignature(signature, set_size),
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

        sketch = TableSketch(
            name="golden",
            content_hash="c0ffee",
            num_rows=3,
            columns=(
                column("amount", DataType.FLOAT, (3, 1, 4, 1, 5), 3,
                       (0.5, 0.25, 0.25), 0, (2.5, 0.5, 2.0, 3.0, 3.0)),
                column("näme", DataType.STRING, (9, 2, 6, 5, 3), 2,
                       (1.0, 0.0, 0.0), 1, (None, None, None, None, 4.5)),
            ),
        )  # fmt: skip
        data = sketch.to_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "799badadd5de5f528bbe9046196ae85fdff70f72c1a6f8e916fbf0289b23d852"
        )
        assert TableSketch.from_bytes(data) == sketch

    @pytest.mark.parametrize(
        "garbage",
        [b"\xde\xad\xbe\xef", b"[]", b'{"tampered": true}', b'{"name": "t"}', "text"],
    )
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
