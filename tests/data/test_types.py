"""Tests for data type inference and coercion."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.csv_io import table_from_csv_text
from repro.data.types import (
    DataType,
    coerce_value,
    infer_column_type,
    infer_value_type,
    is_missing,
    parse_numeric_values,
    type_compatibility,
)


class TestParseNumericValues:
    def test_skips_what_float_cannot_read(self):
        values = [1, "2.5", "x", None, "1e3", True, ""]
        assert parse_numeric_values(values) == [1.0, 2.5, 1000.0]

    def test_reads_a_one_pass_iterable(self):
        assert parse_numeric_values(str(n) for n in range(3)) == [0.0, 1.0, 2.0]


class TestDataTypeKinds:
    def test_numeric_and_textual_are_disjoint(self):
        numeric = {data_type for data_type in DataType if data_type.is_numeric}
        textual = {data_type for data_type in DataType if data_type.is_textual}
        assert numeric == {DataType.INTEGER, DataType.FLOAT}
        assert textual == {DataType.STRING}


class TestIsMissing:
    def test_none_is_missing(self):
        assert is_missing(None)

    def test_nan_is_missing(self):
        assert is_missing(float("nan"))

    def test_empty_string_is_missing(self):
        assert is_missing("")
        assert is_missing("   ")

    @pytest.mark.parametrize("token", ["NA", "n/a", "NULL", "none", "-", "?"])
    def test_conventional_tokens_are_missing(self, token):
        assert is_missing(token)

    @pytest.mark.parametrize("value", [0, 0.0, "0", "value", False, "NAB"])
    def test_real_values_are_not_missing(self, value):
        assert not is_missing(value)


class TestInferValueType:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (5, DataType.INTEGER),
            ("42", DataType.INTEGER),
            ("-17", DataType.INTEGER),
            (3.14, DataType.FLOAT),
            ("2.5e3", DataType.FLOAT),
            ("hello", DataType.STRING),
            ("2020-05-17", DataType.DATE),
            ("17/05/2020", DataType.DATE),
            ("true", DataType.BOOLEAN),
            (True, DataType.BOOLEAN),
            (None, DataType.UNKNOWN),
        ],
    )
    def test_single_values(self, value, expected):
        assert infer_value_type(value) is expected

    def test_string_with_digits_and_letters_is_string(self):
        assert infer_value_type("AB1234") is DataType.STRING


class TestInferColumnType:
    def test_all_integers(self):
        assert infer_column_type([1, 2, 3, "4"]) is DataType.INTEGER

    def test_integers_and_floats_promote_to_float(self):
        assert infer_column_type([1, 2.5, 3]) is DataType.FLOAT

    def test_mixed_numeric_and_text_is_string(self):
        assert infer_column_type([1, "abc", 3]) is DataType.STRING

    def test_empty_column_is_unknown(self):
        assert infer_column_type([]) is DataType.UNKNOWN
        assert infer_column_type([None, None]) is DataType.UNKNOWN

    def test_boolean_column(self):
        assert infer_column_type(["yes", "no", "yes"]) is DataType.BOOLEAN

    def test_date_column(self):
        assert infer_column_type(["2001-01-01", "1999-12-31"]) is DataType.DATE

    def test_missing_values_are_ignored(self):
        assert infer_column_type([None, 5, "", 7]) is DataType.INTEGER

    def test_sample_limit_bounds_inspection(self):
        values = [1] * 10 + ["text"] * 10
        assert infer_column_type(values, sample_limit=5) is DataType.INTEGER


def reference_infer_column_type(values, sample_limit=1000):
    """``infer_column_type`` as it was before the early exit (PR 19).

    Kept verbatim as the reference: types every sampled cell, then resolves
    the promotion lattice over the full set of kinds seen.
    """
    seen = set()
    examined = 0
    for value in values:
        if is_missing(value):
            continue
        seen.add(infer_value_type(value))
        examined += 1
        if examined >= sample_limit:
            break

    if not seen:
        return DataType.UNKNOWN
    if seen == {DataType.BOOLEAN}:
        return DataType.BOOLEAN
    if seen <= {DataType.INTEGER}:
        return DataType.INTEGER
    if seen <= {DataType.INTEGER, DataType.FLOAT}:
        return DataType.FLOAT
    if seen <= {DataType.DATE}:
        return DataType.DATE
    return DataType.STRING


#: One cell of every kind, raw and as CSV text, plus the missing tokens.
_cells = st.sampled_from(
    [1, -7, 2.5, 3.0, True, False, None, float("nan")]
    + ["12", "+4", "1.5", "1e3", ".5", "yes", "no", "T", "2020-01-31", "3/4/21", "1-Jan-2020"]
    + ["text", "12 apples", "2020-13", " 7 ", "", "  ", "NA", "n/a", "null", "-", "?"]
)


class TestInferColumnTypeMatchesTheFullScan:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_cells, max_size=12), st.integers(min_value=-1, max_value=13))
    def test_generated_mixed_columns(self, values, sample_limit):
        assert infer_column_type(values, sample_limit) == reference_infer_column_type(
            values, sample_limit
        )

    @pytest.mark.parametrize("sample_limit", [0, 1, 2, 3, 1000])
    def test_a_deciding_cell_beyond_the_sample_is_not_seen(self, sample_limit):
        values = ["1", "NA", "2", "late text", "2020-01-01"]
        assert infer_column_type(values, sample_limit) == reference_infer_column_type(
            values, sample_limit
        )

    def test_a_text_column_types_one_cell(self, monkeypatch):
        from repro.data import types

        typed = []
        original = types.infer_value_type
        monkeypatch.setattr(
            types, "infer_value_type", lambda value: typed.append(value) or original(value)
        )
        assert infer_column_type(["", "alpha"] + ["beta"] * 500) is DataType.STRING
        assert typed == ["", "alpha"]
        del typed[:]
        assert infer_column_type(["yes", "no", "7"] + ["1"] * 500) is DataType.STRING
        assert typed == ["yes", "no", "7"]


class TestTypeCompatibility:
    def test_identical_types_fully_compatible(self):
        for data_type in DataType:
            assert type_compatibility(data_type, data_type) == 1.0

    def test_integer_float_highly_compatible(self):
        assert type_compatibility(DataType.INTEGER, DataType.FLOAT) == pytest.approx(0.9)

    def test_symmetry(self):
        for a in DataType:
            for b in DataType:
                assert type_compatibility(a, b) == type_compatibility(b, a)

    def test_scores_within_unit_interval(self):
        for a in DataType:
            for b in DataType:
                assert 0.0 <= type_compatibility(a, b) <= 1.0


class TestCoerceValue:
    def test_coerce_to_integer(self):
        assert coerce_value("42", DataType.INTEGER) == 42

    def test_coerce_float_string_to_integer(self):
        assert coerce_value("42.0", DataType.INTEGER) == 42

    def test_coerce_to_float(self):
        assert coerce_value("3.5", DataType.FLOAT) == pytest.approx(3.5)

    def test_coerce_to_boolean(self):
        assert coerce_value("yes", DataType.BOOLEAN) is True
        assert coerce_value("f", DataType.BOOLEAN) is False

    def test_missing_becomes_none(self):
        assert coerce_value("NA", DataType.INTEGER) is None

    def test_uncoercible_value_unchanged(self):
        assert coerce_value("abc", DataType.INTEGER) == "abc"

    def test_string_coercion_strips_whitespace(self):
        assert coerce_value("  hi ", DataType.STRING) == "hi"

    def test_integers_beyond_float_precision_keep_every_digit(self):
        """``int(float(text))`` rounded past 2**53: two keys became one value."""
        literals = ["9007199254740993", "9007199254740992", "123456789012345678901"]
        table = table_from_csv_text("key\n" + "\n".join(literals) + "\n")
        assert table["key"].data_type is DataType.INTEGER
        assert table["key"].values == [int(literal) for literal in literals]
        assert len(table["key"].unique_values()) == 3

    def test_float_spelled_cells_of_an_integer_column_still_coerce(self):
        assert coerce_value("12.0", DataType.INTEGER) == 12
        assert coerce_value("1e3", DataType.INTEGER) == 1000
        assert coerce_value(" -7 ", DataType.INTEGER) == -7

    def test_an_infinite_cell_of_an_integer_column_is_left_alone(self):
        assert coerce_value("inf", DataType.INTEGER) == "inf"

    @pytest.mark.parametrize("cell", ["12.5", " 12.5 ", "-0.25", "1e-3", "1e400", "+nan"])
    def test_a_fractional_cell_of_an_integer_column_is_left_alone(self, cell):
        """``int(float(text))`` truncated ``12.5`` to ``12``; the cell is returned as read."""
        assert coerce_value(cell, DataType.INTEGER) == cell

    @pytest.mark.parametrize(
        "cell,expected", [("12.0", 12), ("1e3", 1000), (" -1.5e1 ", -15), ("-0.0", 0)]
    )
    def test_an_integral_float_cell_of_an_integer_column_still_coerces(self, cell, expected):
        value = coerce_value(cell, DataType.INTEGER)
        assert (type(value), value) == (int, expected)

    def test_a_fractional_cell_past_the_sample_survives_reading(self):
        table = table_from_csv_text("n\n" + "1\n" * 1000 + "12.5\n12.0\n")
        assert table["n"].data_type is DataType.INTEGER
        assert table["n"].values[-2:] == ["12.5", 12]
