"""Tests for column profiling."""

from __future__ import annotations

import pytest
from matcher_support import reference_profile_column

from repro.data.profiling import profile_column
from repro.data.table import Column
from repro.data.types import DataType


class TestProfileColumn:
    def test_numeric_summary(self):
        profile = profile_column(Column("x", [1, 2, 3, 4]))
        assert profile.data_type is DataType.INTEGER
        assert profile.mean == pytest.approx(2.5)
        assert profile.minimum == 1
        assert profile.maximum == 4
        assert profile.std == pytest.approx(1.118, abs=1e-3)

    def test_text_column_has_no_numeric_summary(self):
        profile = profile_column(Column("x", ["a", "bb", "ccc"]))
        assert profile.mean is None
        assert profile.avg_length == pytest.approx(2.0)

    def test_missing_and_distinct_counts(self):
        profile = profile_column(Column("x", ["a", "a", None, "b"]))
        assert profile.missing_count == 1
        assert profile.distinct_count == 2
        assert profile.row_count == 4

    @pytest.mark.parametrize(
        "values",
        [[3, 1, None, 3, "7"], ["b", None, "a", "b"], [], [1, 1.0, True, " NA "], [0.0, -0.0]],
    )
    def test_a_precomputed_scan_profiles_the_same(self, values):
        """The profile read off the column's scan is the per-cell one."""
        column = Column("x", values)
        assert profile_column(column) == reference_profile_column(column)

    def test_empty_column(self):
        profile = profile_column(Column("x", []))
        assert profile.row_count == 0
        assert profile.missing_count == 0
        assert profile.distinct_count == 0
