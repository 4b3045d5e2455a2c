"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.parameters import ParameterGrid
from repro.experiments.runner import ExperimentRunner, run_single_experiment
from repro.matchers.coma import ComaSchemaMatcher
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


class TestCacheAwareRunner:
    def test_grid_sweep_reuses_prepared_tables(self, small_grids, unionable_pair):
        """JL's threshold is match-stage-only, so the second grid
        configuration's prepares are all served from the shared cache."""
        from repro.discovery.prepared import PreparedTableCache

        cache = PreparedTableCache()
        runner = ExperimentRunner(grids=small_grids, prepared_cache=cache)
        results = runner.run_method("JaccardLevenshtein", [unionable_pair])
        # 2 configurations x 1 pair x 2 tables: config 1 misses, config 2 hits.
        assert cache.misses == 2
        assert cache.hits == 2
        hit_rates = [
            record.extra_metrics["prepare_cache_hit_rate"] for record in results
        ]
        assert sorted(hit_rates) == [0.0, 1.0]
        assert all(
            "prepare_cache_hits" in record.extra_metrics for record in results
        )

    def test_cached_rankings_match_uncached(self, small_grids, unionable_pair):
        from repro.discovery.prepared import PreparedTableCache

        plain = ExperimentRunner(grids=small_grids)
        cached = ExperimentRunner(grids=small_grids, prepared_cache=PreparedTableCache())
        baseline = plain.run_all([unionable_pair])
        reused = cached.run_all([unionable_pair])
        assert [r.recall_at_ground_truth for r in baseline] == [
            r.recall_at_ground_truth for r in reused
        ]

    def test_no_cache_means_no_cache_metrics(self, small_grids, unionable_pair):
        runner = ExperimentRunner(grids=small_grids)
        results = runner.run_all([unionable_pair], methods=["JaccardLevenshtein"])
        assert all(
            "prepare_cache_hit_rate" not in record.extra_metrics for record in results
        )

    def test_hit_rate_denominator_comes_from_telemetry(self, small_grids, unionable_pair):
        """The hit rate is hits / (hits + misses) as counted by this run's
        own telemetry — not a hardcoded two-prepares-per-run assumption."""
        from repro.discovery.prepared import PreparedTableCache

        runner = ExperimentRunner(
            grids=small_grids, prepared_cache=PreparedTableCache()
        )
        results = runner.run_method("JaccardLevenshtein", [unionable_pair])
        for record in results:
            hits = record.extra_metrics.get("tm.prepared_cache.hits", 0.0)
            misses = record.extra_metrics.get("tm.prepared_cache.misses", 0.0)
            prepares = hits + misses
            assert prepares == 2.0  # source + target, per-run counters
            assert record.extra_metrics["prepare_cache_hit_rate"] == pytest.approx(
                hits / prepares
            )
            assert record.extra_metrics["prepare_cache_hits"] == hits


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
        from repro.telemetry import TelemetryRecorder, use

        recorder = TelemetryRecorder()
        with use(recorder):
            run_single_experiment(ComaSchemaMatcher(), unionable_pair)
            run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        snap = recorder.snapshot()
        assert len(snap.durations["matcher.prepare"]) == 2
        assert len(snap.durations["matcher.match"]) == 2

    def test_runs_record_nothing_globally_by_default(self, unionable_pair):
        from repro.telemetry import NULL_RECORDER

        run_single_experiment(ComaSchemaMatcher(), unionable_pair)
        assert NULL_RECORDER.snapshot().empty


class TestPooledRunner:
    @pytest.fixture(scope="class")
    def pool(self):
        from repro.discovery.search import RerankPool

        with RerankPool(max_workers=2) as pool:
            yield pool

    def test_pooled_sweep_matches_serial_records(
        self, small_grids, unionable_pair, noisy_unionable_pair, pool
    ):
        """A RerankPool-backed sweep must produce the same records, in the
        same order, as the serial loop (runtimes aside)."""
        pairs = [unionable_pair, noisy_unionable_pair]
        serial = ExperimentRunner(grids=small_grids).run_all(pairs)
        pooled = ExperimentRunner(grids=small_grids, rerank_pool=pool).run_all(pairs)
        assert pool.spawn_count == 1  # one pool serves the whole sweep
        key = lambda r: (
            r.method,
            r.pair_name,
            tuple(sorted(r.parameters.items())),
            r.recall_at_ground_truth,
        )
        assert [key(r) for r in pooled.records] == [key(r) for r in serial.records]

    def test_pooled_progress_callback_invoked(self, small_grids, unionable_pair, pool):
        messages = []
        runner = ExperimentRunner(
            grids=small_grids, progress_callback=messages.append, rerank_pool=pool
        )
        runner.run_all([unionable_pair], methods=["JaccardLevenshtein"])
        assert len(messages) == 2  # one per configuration x pair
        assert all("recall@GT" in message for message in messages)
