"""Tests for the experiment runner."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.experiments.parameters import ParameterGrid
from repro.experiments.runner import ExperimentRunner, run_single_experiment
from repro.matchers.coma.matcher import ComaSchemaMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher


@pytest.fixture
def small_grids():
    return {
        "ComaSchema": ParameterGrid("ComaSchema", ComaSchemaMatcher, {}, fixed={"threshold": 0.0}),
        "JaccardLevenshtein": ParameterGrid(
            "JaccardLevenshtein",
            JaccardLevenshteinMatcher,
            {"threshold": (0.6, 0.8)},
            fixed={"sample_size": 8},
        ),
    }


class TestRunSingleExperiment:
    def test_record_fields(self, unionable_pair):
        record = run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        assert record.method == "ComaSchema"
        assert record.pair_name == unionable_pair.name
        assert record.scenario == "unionable"
        assert record.ground_truth_size == unionable_pair.ground_truth_size
        assert 0.0 <= record.recall_at_ground_truth <= 1.0
        assert record.runtime_seconds > 0.0
        assert record.noisy_schema is False
        assert "reciprocal_rank" in record.extra_metrics

    def test_method_name_and_parameters_override(self, unionable_pair):
        record = run_single_experiment(
            ComaSchemaMatcher(), unionable_pair, method_name="Custom", parameters={"x": 1}
        )
        assert record.method == "Custom"
        assert record.parameters == {"x": 1}

    def test_perfect_recall_on_verbatim_pair(self, unionable_pair):
        record = run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        assert record.recall_at_ground_truth == 1.0


class TestExperimentRunner:
    def test_run_method_covers_grid_and_pairs(self, small_grids, unionable_pair, noisy_unionable_pair):
        runner = ExperimentRunner(grids=small_grids)
        results = runner.run_method("JaccardLevenshtein", [unionable_pair, noisy_unionable_pair])
        assert len(results) == 2 * 2  # 2 configurations x 2 pairs

    def test_unknown_method_raises(self, small_grids, unionable_pair):
        runner = ExperimentRunner(grids=small_grids)
        with pytest.raises(KeyError):
            runner.run_method("Nope", [unionable_pair])

    def test_run_all_and_total_runs(self, small_grids, unionable_pair):
        runner = ExperimentRunner(grids=small_grids)
        assert runner.total_runs(1) == 3
        results = runner.run_all([unionable_pair])
        assert len(results) == 3
        assert set(results.methods()) == {"ComaSchema", "JaccardLevenshtein"}

    def test_method_subset(self, small_grids, unionable_pair):
        runner = ExperimentRunner(grids=small_grids)
        results = runner.run_all([unionable_pair], methods=["ComaSchema"])
        assert results.methods() == ["ComaSchema"]

    def test_progress_callback_invoked(self, small_grids, unionable_pair):
        messages = []
        runner = ExperimentRunner(grids=small_grids, progress_callback=messages.append)
        runner.run_all([unionable_pair], methods=["ComaSchema"])
        assert len(messages) == 1
        assert "recall@GT" in messages[0]


class TestConfiguration:
    def test_the_runner_takes_no_prepared_cache(self):
        """A run prepares both tables itself, so ``runtime_seconds`` always
        means what the paper's Table 5 measures."""
        assert [field.name for field in dataclasses.fields(ExperimentRunner)] == [
            "grids",
            "progress_callback",
        ]
        assert list(inspect.signature(run_single_experiment).parameters) == [
            "matcher",
            "pair",
            "method_name",
            "parameters",
        ]


class TestTelemetryMetrics:
    def test_records_carry_tm_metrics(self, unionable_pair):
        """Every record flattens its per-run telemetry: matcher stage
        durations always, counters whenever the run produced any."""
        record = run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        assert record.extra_metrics["tm.matcher.prepare.seconds"] >= 0.0
        assert record.extra_metrics["tm.matcher.match.seconds"] >= 0.0
        assert all(
            isinstance(value, float) for value in record.extra_metrics.values()
        )

    def test_run_merges_into_active_recorder(self, unionable_pair):
        from repro.telemetry.recorder import TelemetryRecorder, use

        recorder = TelemetryRecorder()
        with use(recorder):
            run_single_experiment(ComaSchemaMatcher(), unionable_pair)
            run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        snap = recorder.snapshot()
        assert len(snap.durations["matcher.prepare"]) == 2
        assert len(snap.durations["matcher.match"]) == 2

    def test_runs_record_nothing_globally_by_default(self, unionable_pair):
        from repro.telemetry.recorder import NULL_RECORDER

        run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        assert NULL_RECORDER.snapshot().empty

