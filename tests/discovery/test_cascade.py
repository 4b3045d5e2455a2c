"""Unit and property tests for the rerank cascade (stage-1 bounds, cutoff).

The end-to-end exactness suite over every registered matcher lives in
``tests/lake/test_cascade_engine.py`` (it needs a sketch store); this module
covers the cascade primitives and the admissibility *contract* — a matcher
whose bound is deliberately wrong must not corrupt rankings as long as it
keeps ``bounds_admissible()`` False.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datasets import tpcdi_prospect_table
from repro.discovery import search as discovery_search
from repro.discovery.cascade import CandidateSignals, mode_bound
from repro.discovery.search import (
    DatasetRepository,
    DiscoveryEngine,
    _TopKCutoff,
    mode_score,
)
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.telemetry import TelemetryRecorder, use

TOP_K = 3


@pytest.fixture(scope="module")
def lake():
    rng = random.Random(11)
    base = tpcdi_prospect_table(num_rows=40, seed=2)
    horizontal = split_horizontal(base, 0.3, rng)
    query = horizontal.first.rename("query_prospects")
    repository = DatasetRepository()
    repository.add(horizontal.second.rename("prospects_full"))
    for i in range(8):
        vertical = split_vertical(base, rng.uniform(0.3, 0.7), rng)
        repository.add(vertical.second.rename(f"slice_{i}"))
    return query, repository


def _signature(results):
    return [(r.table_name, r.joinability, r.unionability) for r in results]


def _discover_counted(engine, *args, **kwargs):
    """``engine.discover(...)`` plus the counters that rerank emitted."""
    recorder = TelemetryRecorder()
    with use(recorder):
        results = engine.discover(*args, **kwargs)
    return results, recorder.snapshot().counters


class TestTopKCutoff:
    def test_no_cutoff_until_k_scores(self):
        cutoff = _TopKCutoff(3)
        assert cutoff.value is None
        cutoff.observe(0.5)
        cutoff.observe(0.1)
        assert cutoff.value is None
        cutoff.observe(0.9)
        assert cutoff.value == 0.1

    def test_cutoff_tightens_monotonically(self):
        cutoff = _TopKCutoff(2)
        assert cutoff.observe(0.2) is False  # heap not full yet
        assert cutoff.observe(0.4) is True  # heap full: the cutoff appears
        assert cutoff.value == 0.2
        assert cutoff.observe(0.1) is False  # below the kth best: no change
        assert cutoff.observe(0.5) is True  # evicts 0.2 -> cutoff rises
        assert cutoff.value == 0.4

    def test_unbounded_k_never_cuts(self):
        cutoff = _TopKCutoff(None)
        assert cutoff.observe(1.0) is False
        assert cutoff.value is None


class TestModeBound:
    def test_infinite_pair_bound_stays_infinite(self):
        for mode in ("joinable", "unionable", "combined"):
            assert mode_bound(math.inf, mode, 0.55) == math.inf

    def test_union_bound_is_zero_below_threshold(self):
        assert mode_bound(0.4, "unionable", 0.55) == 0.0
        assert mode_bound(0.6, "unionable", 0.55) == 1.0

    def test_combined_blends_half_half(self):
        assert mode_bound(0.4, "combined", 0.55) == pytest.approx(0.2)
        assert mode_bound(0.8, "combined", 0.55) == pytest.approx(0.9)


class TestModeScore:
    def test_matches_sort_keys(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        results = engine.discover(query, repository, mode="combined")
        for result in results:
            assert mode_score(result, "joinable") == result.joinability
            assert mode_score(result, "unionable") == result.unionability
            assert mode_score(result, "combined") == result.scores.combined()

    def test_unknown_mode_rejected(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        result = engine.discover(query, repository, top_k=1)[0]
        with pytest.raises(ValueError):
            mode_score(result, "bogus")


class _WrongLowBoundMatcher(JaccardLevenshteinMatcher):
    """A deliberately *unsound* bound: claims no pair can beat 0.0.

    ``bounds_admissible()`` stays False (the base default), which is the
    contract under test: an untrusted bound may only re-order scoring, never
    skip it, so the ranking survives the lie.
    """

    def score_bound(self, prepared_query, signals) -> float:
        return 0.0


class _WrongLowBoundAdmissibleMatcher(_WrongLowBoundMatcher):
    """The same lie, wrongly declared admissible — skipping becomes visible."""

    def bounds_admissible(self) -> bool:
        return True


class TestAdmissibilityContract:
    def test_non_admissible_wrong_bound_never_skips(self, lake):
        query, repository = lake
        baseline = DiscoveryEngine(
            matcher=JaccardLevenshteinMatcher(sample_size=8)
        ).discover(query, repository, mode="combined", top_k=TOP_K)

        engine = DiscoveryEngine(matcher=_WrongLowBoundMatcher(sample_size=8))
        cascaded, counters = _discover_counted(
            engine, query, repository, mode="combined", top_k=TOP_K, cascade=True
        )
        assert _signature(cascaded) == _signature(baseline)
        assert counters["rerank.cascade.skipped"] == 0
        assert counters["rerank.cascade.exact"] == len(repository.table_names)
        assert "rerank.budget_stops" not in counters

    def test_admissible_declaration_is_what_permits_skipping(self, lake):
        # Contrast case: the *only* difference is bounds_admissible() -> True,
        # and the too-low bound now visibly skips candidates.  This is the
        # failure mode the default-False contract protects against.
        query, repository = lake
        engine = DiscoveryEngine(
            matcher=_WrongLowBoundAdmissibleMatcher(sample_size=8)
        )
        _, counters = _discover_counted(
            engine, query, repository, mode="combined", top_k=TOP_K, cascade=True
        )
        assert counters["rerank.cascade.skipped"] > 0
        assert counters["rerank.cascade.exact"] + counters[
            "rerank.cascade.skipped"
        ] == len(repository.table_names)

    def test_budget_only_keeps_shortlist_order_and_completes(self, lake, monkeypatch):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        baseline = engine.discover(query, repository, mode="combined", top_k=TOP_K)

        def no_stage_one(*args, **kwargs):
            raise AssertionError("a budget without cascade computes no stage 1")

        monkeypatch.setattr(discovery_search, "candidate_signals", no_stage_one)
        budgeted, counters = _discover_counted(
            engine, query, repository, mode="combined", top_k=TOP_K, budget_ms=60_000.0
        )
        assert _signature(budgeted) == _signature(baseline)
        assert "rerank.budget_stops" not in counters
        assert counters["rerank.cascade.exact"] == len(repository.table_names)

    def test_cascade_prices_every_candidate(self, lake, monkeypatch):
        query, repository = lake
        priced = {}
        real = discovery_search.candidate_signals

        def recording(query_sketch, columns, seed=7):
            signal = real(query_sketch, columns, seed=seed)
            priced[signal.table_name] = signal
            return signal

        monkeypatch.setattr(discovery_search, "candidate_signals", recording)
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        _, counters = _discover_counted(
            engine, query, repository, mode="combined", top_k=TOP_K, cascade=True
        )
        assert set(priced) == set(repository.table_names) - {query.name}
        for signal in priced.values():
            assert isinstance(signal, CandidateSignals)
            assert 0.0 <= signal.max_jaccard <= 1.0
        # JL is not admissible: everything was scored exactly.
        assert counters["rerank.cascade.skipped"] == 0
        assert counters["rerank.cascade.exact"] == len(repository.table_names)

    def test_unpriced_unbudgeted_rerank_emits_no_cascade_counters(self, lake):
        query, repository = lake
        engine = DiscoveryEngine(matcher=JaccardLevenshteinMatcher(sample_size=8))
        _, counters = _discover_counted(
            engine, query, repository, mode="combined", top_k=TOP_K
        )
        assert counters["discovery.candidates_scored"] == len(repository.table_names)
        assert not any(name.startswith("rerank.c") for name in counters)
