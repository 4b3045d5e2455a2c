"""The experiment runner (Figure 1, step 3).

Exhaustively executes every combination of method configuration × dataset
pair, measuring Recall@ground-truth and runtime per run, and collects the
outcomes into a :class:`~repro.experiments.results.ResultSet`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.discovery.prepared import PreparedTableCache
from repro.discovery.search import RerankPool
from repro.fabrication.pairs import DatasetPair
from repro.experiments.parameters import ParameterGrid
from repro.experiments.results import ExperimentRecord, ResultSet
from repro.matchers.base import BaseMatcher
from repro.metrics.ranking import recall_at_ground_truth, reciprocal_rank
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import TelemetryRecorder

__all__ = ["ExperimentRunner", "run_single_experiment"]


def run_single_experiment(
    matcher: BaseMatcher,
    pair: DatasetPair,
    method_name: Optional[str] = None,
    parameters: Optional[Mapping[str, object]] = None,
    prepared_cache: Optional[PreparedTableCache] = None,
) -> ExperimentRecord:
    """Run one matcher on one dataset pair and score the ranking.

    Parameters
    ----------
    matcher:
        The configured matching method.
    pair:
        The dataset pair with ground truth.
    method_name:
        Display name recorded for the run (defaults to the matcher's name).
    parameters:
        Parameter values recorded for the run (defaults to
        ``matcher.parameters()``).
    prepared_cache:
        Optional shared :class:`~repro.discovery.prepared.PreparedTableCache`.
        When sweeping a parameter grid, configurations whose
        :meth:`~repro.matchers.base.BaseMatcher.prepare` ignores the swept
        parameter share one prepared payload per table — the run then times
        only the pairwise stage plus a cache lookup, and the record's
        ``prepare_cache_hits``/``prepare_cache_hit_rate`` extra metrics
        report the reuse.  Leave ``None`` (the default) for paper-faithful
        runtime measurements: caching changes what ``runtime_seconds``
        means.
    """
    # Run through the two-phase protocol explicitly so the records can report
    # how much of the runtime is per-table preparation (the part discovery
    # amortises) versus genuinely pairwise matching.  Total runtime semantics
    # are unchanged: prepare + match is exactly what get_matches does.
    #
    # Every run executes under its own telemetry recorder: the snapshot
    # yields the cache-hit counters this record reports and is flattened
    # into ``extra_metrics`` (``tm.*``), then merged into whatever recorder
    # the caller has active so sweep-level totals still add up.
    parent = telemetry.get_recorder()
    run_recorder = TelemetryRecorder()
    use_cache = prepared_cache is not None
    started = time.perf_counter()
    with telemetry.use(run_recorder):
        with telemetry.span("matcher.prepare", pair=pair.name):
            if use_cache:
                source_prepared = prepared_cache.prepare(matcher, pair.source)
                target_prepared = prepared_cache.prepare(matcher, pair.target)
            else:
                source_prepared = matcher.prepare(pair.source)
                target_prepared = matcher.prepare(pair.target)
        prepared_at = time.perf_counter()
        with telemetry.span("matcher.match", pair=pair.name):
            result = matcher.match_prepared(source_prepared, target_prepared)
    elapsed = time.perf_counter() - started
    snapshot = run_recorder.snapshot()
    if parent.enabled:
        parent.merge(snapshot)

    ranked = result.ranked_pairs()
    truth = pair.ground_truth
    recall = recall_at_ground_truth(ranked, truth)
    extra_metrics = {
        "reciprocal_rank": reciprocal_rank(ranked, truth),
        "prepare_seconds": prepared_at - started,
    }
    if use_cache:
        # Both the hit count and the number of prepares come from this
        # run's own telemetry counters — the denominator is no longer a
        # hardcoded "2 prepares per run" assumption.
        run_hits = snapshot.counters.get("prepared_cache.hits", 0)
        run_prepares = run_hits + snapshot.counters.get("prepared_cache.misses", 0)
        extra_metrics["prepare_cache_hits"] = float(run_hits)
        extra_metrics["prepare_cache_hit_rate"] = (
            run_hits / run_prepares if run_prepares else 0.0
        )
    for name, value in sorted(snapshot.counters.items()):
        extra_metrics[f"tm.{name}"] = float(value)
    for name, seconds in sorted(snapshot.stage_seconds().items()):
        extra_metrics[f"tm.{name}.seconds"] = seconds
    record = ExperimentRecord(
        method=method_name or matcher.name,
        matcher_code=matcher.code,
        pair_name=pair.name,
        scenario=pair.scenario.value,
        variant=pair.variant.value if pair.variant else None,
        dataset_source=str(pair.metadata.get("seed_table", pair.metadata.get("source_dataset", ""))) or None,
        parameters=dict(parameters or matcher.parameters()),
        recall_at_ground_truth=recall,
        runtime_seconds=elapsed,
        ground_truth_size=pair.ground_truth_size,
        noisy_schema=pair.variant.noisy_schema if pair.variant else None,
        noisy_instances=pair.variant.noisy_instances if pair.variant else None,
        extra_metrics=extra_metrics,
    )
    return record


def _run_pooled_experiment(
    task: tuple[BaseMatcher, DatasetPair, str, Mapping[str, object]],
) -> ExperimentRecord:
    """One (configuration, pair) experiment, shaped for ``RerankPool.map``."""
    matcher, pair, method_name, parameters = task
    return run_single_experiment(
        matcher, pair, method_name=method_name, parameters=parameters
    )


@dataclass
class ExperimentRunner:
    """Runs grids of method configurations over collections of dataset pairs.

    Attributes
    ----------
    grids:
        Parameter grids keyed by method name (see
        :func:`repro.experiments.parameters.default_parameter_grids`).
    progress_callback:
        Optional callable invoked with a human-readable progress string after
        every run (used by the CLI).
    prepared_cache:
        Optional shared :class:`~repro.discovery.prepared.PreparedTableCache`
        threaded through every run.  Across a parameter grid, configurations
        whose prepare stage ignores the swept parameter (the matcher's
        :meth:`~repro.matchers.base.BaseMatcher.prepare_parameters` excludes
        it) reuse prepared pair tables instead of re-preparing per
        configuration; each record's ``prepare_cache_hit_rate`` extra metric
        reports the reuse.  Leave ``None`` for paper-faithful runtime
        measurements.
    rerank_pool:
        Optional persistent :class:`~repro.discovery.search.RerankPool`.
        When set, the (configuration x pair) experiments of each method fan
        out over its warm worker processes — the grid is embarrassingly
        parallel, and one pool amortises its spawn cost over the whole
        sweep.  Records come back in the same order as the serial loop.
        The in-process ``prepared_cache`` cannot cross processes and is
        ignored on this path; per-run wall-clock is still measured inside
        the worker, but concurrent runs share cores, so keep the pool
        ``None`` for paper-faithful runtime comparisons.
    """

    grids: Mapping[str, ParameterGrid]
    progress_callback: Optional[Callable[[str], None]] = None
    prepared_cache: Optional[PreparedTableCache] = None
    rerank_pool: Optional[RerankPool] = None

    def _notify(self, message: str) -> None:
        if self.progress_callback is not None:
            self.progress_callback(message)

    def run_method(
        self,
        method_name: str,
        pairs: Sequence[DatasetPair],
    ) -> ResultSet:
        """Run every configuration of one method over every pair."""
        if method_name not in self.grids:
            raise KeyError(f"no parameter grid for method {method_name!r}")
        grid = self.grids[method_name]
        results = ResultSet()
        if self.rerank_pool is not None:
            tasks = [
                (matcher, pair, method_name, parameters)
                for parameters, matcher in grid.matchers()
                for pair in pairs
            ]
            for record in self.rerank_pool.map(_run_pooled_experiment, tasks):
                results.add(record)
                self._notify(
                    f"{method_name} on {record.pair_name}: "
                    f"recall@GT={record.recall_at_ground_truth:.3f}"
                )
            return results
        for parameters, matcher in grid.matchers():
            for pair in pairs:
                record = run_single_experiment(
                    matcher,
                    pair,
                    method_name=method_name,
                    parameters=parameters,
                    prepared_cache=self.prepared_cache,
                )
                results.add(record)
                self._notify(
                    f"{method_name} on {pair.name}: recall@GT={record.recall_at_ground_truth:.3f}"
                )
        return results

    def run_all(
        self,
        pairs: Sequence[DatasetPair],
        methods: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """Run every (selected) method over every pair — the full Figure 1 loop."""
        selected = list(methods) if methods is not None else list(self.grids)
        results = ResultSet()
        for method_name in selected:
            results.extend(self.run_method(method_name, pairs).records)
        return results

    def total_runs(self, num_pairs: int, methods: Optional[Iterable[str]] = None) -> int:
        """Number of experiment runs ``run_all`` would execute."""
        selected = list(methods) if methods is not None else list(self.grids)
        return sum(self.grids[name].size() * num_pairs for name in selected)
