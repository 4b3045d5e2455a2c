"""Tests for experiment records and aggregation."""

from __future__ import annotations

import json

import pytest

from repro.experiments.results import BoxplotStats, ExperimentRecord, ResultSet


def _record(method="M", scenario="unionable", recall=0.5, runtime=1.0, pair="p", source="tpcdi"):
    return ExperimentRecord(
        method=method,
        matcher_code="XX",
        pair_name=pair,
        scenario=scenario,
        variant="VS/VI",
        dataset_source=source,
        parameters={"alpha": 1},
        recall_at_ground_truth=recall,
        runtime_seconds=runtime,
        ground_truth_size=5,
    )


class TestBoxplotStats:
    def test_basic_statistics(self):
        stats = BoxplotStats.from_values([0.0, 0.25, 0.5, 0.75, 1.0])
        assert stats.minimum == 0.0
        assert stats.maximum == 1.0
        assert stats.median == 0.5
        assert stats.mean == 0.5
        assert stats.count == 5

    def test_single_value(self):
        stats = BoxplotStats.from_values([0.7])
        assert stats.minimum == stats.maximum == stats.median == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxplotStats.from_values([])


class TestResultSet:
    def test_add_extend_len(self):
        results = ResultSet()
        results.add(_record())
        results.extend([_record(), _record()])
        assert len(results) == 3

    def test_filters(self):
        results = ResultSet([
            _record(method="A", scenario="unionable", source="tpcdi"),
            _record(method="B", scenario="joinable", source="chembl"),
        ])
        assert len(results.for_method("A")) == 1
        assert len(results.for_scenario("joinable")) == 1
        assert results.methods() == ["A", "B"]
        assert results.scenarios() == ["joinable", "unionable"]

    def test_boxplot_grouping(self):
        results = ResultSet([
            _record(method="A", scenario="unionable", recall=0.2),
            _record(method="A", scenario="unionable", recall=0.8),
            _record(method="A", scenario="joinable", recall=1.0),
        ])
        stats = results.boxplot_by_method_and_scenario()
        assert stats[("A", "unionable")].median == pytest.approx(0.5)
        assert stats[("A", "joinable")].count == 1

    def test_best_and_mean_recall(self):
        results = ResultSet([
            _record(method="A", recall=0.4),
            _record(method="A", recall=0.9),
            _record(method="B", recall=0.1),
        ])
        assert results.best_recall_by_method() == {"A": 0.9, "B": 0.1}
        assert results.mean_recall_by_method()["A"] == pytest.approx(0.65)

    def test_recall_values_keep_record_order(self):
        results = ResultSet([_record(recall=0.4), _record(recall=0.9), _record(recall=0.4)])
        assert results.recall_values() == [0.4, 0.9, 0.4]

    def test_to_json(self, tmp_path):
        results = ResultSet([_record(method="A", recall=0.4), _record(method="B", recall=0.7)])
        path = results.to_json(tmp_path / "out" / "results.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert [(row["method"], row["recall_at_ground_truth"]) for row in loaded] == [
            ("A", 0.4),
            ("B", 0.7),
        ]
        assert loaded[0]["parameters"] == {"alpha": 1}

    def test_record_to_dict(self):
        record = _record()
        data = record.to_dict()
        assert data["method"] == "M"
        assert data["recall_at_ground_truth"] == 0.5
