"""Tests for the Jaccard–Levenshtein baseline matcher."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS, reference_fuzzy_jaccard_sets
from repro.data.table import Column, Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.fabrication.pairs import DatasetPair, NoiseVariant
from repro.fabrication.scenarios import (
    fabricate_joinable,
    fabricate_semantically_joinable,
    fabricate_unionable,
    fabricate_view_unionable,
)
from repro.matchers import jaccard_levenshtein
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher, _normalised_value_set
from repro.metrics.ranking import recall_at_ground_truth


@lru_cache(maxsize=None)
def fidelity_pairs(num_rows: int) -> dict[str, DatasetPair]:
    """The four ``test_paper_fidelity`` pairs (same source seed and pair
    seeds), with the source's row count as a parameter."""
    source = tpcdi_prospect_table(num_rows=num_rows, seed=3)
    noisy_schema = NoiseVariant.NOISY_SCHEMA_VERBATIM_INSTANCES
    noisy_both = NoiseVariant.NOISY_SCHEMA_NOISY_INSTANCES
    return {
        "unionable": fabricate_unionable(source, noisy_schema, 0.5, random.Random(11)),
        "view_unionable": fabricate_view_unionable(source, noisy_both, 0.5, random.Random(12)),
        "joinable": fabricate_joinable(source, noisy_schema, 0.5, random.Random(13)),
        "semantically_joinable": fabricate_semantically_joinable(
            source, noisy_both, 0.5, random.Random(14)
        ),
    }


def _one_column_score(values_a: list, values_b: list, threshold: float) -> float:
    """The matcher's score for two one-column tables holding the values."""
    source, target = Table("s", {"c": values_a}), Table("t", {"c": values_b})
    matcher = JaccardLevenshteinMatcher(threshold=threshold, sample_size=10)
    return matcher.get_matches(source, target).best().score


class TestFuzzyJaccard:
    def test_identical_sets(self):
        assert _one_column_score(["a", "b"], ["a", "b"], 0.8) == 1.0

    def test_disjoint_sets(self):
        assert _one_column_score(["aaa"], ["zzz"], 0.8) == 0.0

    def test_typo_tolerance(self):
        score = _one_column_score(["amsterdam"], ["amsterdan"], 0.8)
        assert score == 1.0

    def test_strict_threshold_rejects_typos(self):
        score = _one_column_score(["amsterdam"], ["amsterdan"], 1.0)
        assert score == 0.0

    def test_empty_sides(self):
        assert _one_column_score([], [], 0.5) == 1.0
        assert _one_column_score(["a"], [], 0.5) == 0.0

    def test_case_insensitive(self):
        assert _one_column_score(["Apple"], ["apple"], 1.0) == 1.0


class TestMatcher:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JaccardLevenshteinMatcher(threshold=1.5)
        with pytest.raises(ValueError):
            JaccardLevenshteinMatcher(sample_size=-1)

    def test_ranks_value_overlapping_columns_first(self):
        source = Table(
            "s",
            [
                Column("city", ["amsterdam", "rotterdam", "delft", "utrecht"]),
                Column("code", ["a1", "b2", "c3", "d4"]),
            ],
        )
        target = Table(
            "t",
            [
                Column("town", ["delft", "utrecht", "amsterdam", "eindhoven"]),
                Column("ident", ["x9", "y8", "z7", "w6"]),
            ],
        )
        result = JaccardLevenshteinMatcher(threshold=0.8).get_matches(source, target)
        assert result.ranked_pairs()[0] == ("city", "town")

    def test_complete_ranking_emitted(self):
        source = Table("s", {"a": ["1", "2"], "b": ["x", "y"]})
        target = Table("t", {"c": ["1", "2"], "d": ["p", "q"]})
        result = JaccardLevenshteinMatcher().get_matches(source, target)
        assert len(result) == 4  # all pairs present, ranking decides

    def test_perfect_recall_on_identical_tables(self, unionable_pair):
        matcher = JaccardLevenshteinMatcher(threshold=0.8, sample_size=50)
        result = matcher.get_matches(unionable_pair.source, unionable_pair.target)
        recall = recall_at_ground_truth(result.ranked_pairs(), unionable_pair.ground_truth)
        assert recall >= 0.6

    def test_ignores_attribute_names(self):
        # Same names but disjoint values -> low score; different names with
        # shared values -> high score.
        source = Table("s", {"value": ["aa", "bb", "cc"]})
        target = Table(
            "t",
            {"value": ["zz", "yy", "xx"], "other": ["aa", "bb", "cc"]},
        )
        result = JaccardLevenshteinMatcher(threshold=0.9).get_matches(source, target)
        assert result.ranked_pairs()[0] == ("value", "other")


class TestAgainstTheBandedReference:
    """Every score equals the fuzzy pass that called the banded DP, with ``==``.

    Two configurations per pair: the default threshold, and the bottom of
    the paper's grid, where the cutoff (and so the band) is widest; the
    samples are capped so the reference's DP stays at seconds scale.
    """

    @pytest.mark.parametrize("num_rows", [60, 200])
    @pytest.mark.parametrize(
        "scenario", ["unionable", "view_unionable", "joinable", "semantically_joinable"]
    )
    def test_every_score_equals_the_reference(self, scenario, num_rows):
        pair = fidelity_pairs(num_rows)[scenario]
        for threshold, sample_size in ((0.8, 40), (0.4, 16)):
            matcher = JaccardLevenshteinMatcher(threshold=threshold, sample_size=sample_size)
            expected = {
                (source.name, target.name): reference_fuzzy_jaccard_sets(
                    _normalised_value_set(source.as_strings()),
                    _normalised_value_set(target.as_strings()),
                    threshold=threshold,
                    sample_size=sample_size,
                )
                for source in pair.source.columns
                for target in pair.target.columns
            }
            assert matcher.get_matches(pair.source, pair.target).scores() == expected


class TestWorkCensus:
    """How many distances the fuzzy pass computes on the 60-row fidelity
    pairs at the light config.  A pair whose length difference already
    exceeds the cutoff is skipped before the kernel is called (when the
    kernel took the cutoff itself, it was called 7,854 and 14,984 times)."""

    @pytest.mark.parametrize("scenario,calls", [("joinable", 2_471), ("unionable", 4_942)])
    def test_levenshtein_calls(self, scenario, calls, monkeypatch):
        counted = []
        kernel = jaccard_levenshtein.levenshtein_distance

        def counting(a, b):
            counted.append(None)
            return kernel(a, b)

        monkeypatch.setattr(jaccard_levenshtein, "levenshtein_distance", counting)
        pair = fidelity_pairs(60)[scenario]
        matcher = JaccardLevenshteinMatcher(**LIGHT_MATCHER_CONFIGS["jaccardlevenshtein"])
        matcher.get_matches(pair.source, pair.target)
        assert len(counted) == calls
