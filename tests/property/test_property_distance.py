"""Property-based tests for the string-similarity substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from matcher_support import reference_levenshtein_distance
from repro.text.distance import (
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    normalized_levenshtein,
)

short_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20)
value_sets = st.sets(st.text(max_size=6), max_size=15)
#: Any code point (astral ones included), long enough to cross a 64-bit word.
any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=90)


class TestLevenshteinProperties:
    @settings(max_examples=150)
    @given(any_text, any_text)
    def test_equals_the_two_row_dp(self, a, b):
        assert levenshtein_distance(a, b) == reference_levenshtein_distance(a, b)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0
        assert normalized_levenshtein(a, a) == 1.0

    @given(short_text, short_text)
    def test_bounded_by_longer_string(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @settings(max_examples=40)
    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(short_text, short_text)
    def test_normalized_in_unit_interval(self, a, b):
        assert 0.0 <= normalized_levenshtein(a, b) <= 1.0


class TestJaroWinklerProperties:
    @given(short_text, short_text)
    def test_bounded(self, a, b):
        assert 0.0 <= jaro_winkler_similarity(a, b) <= 1.0 + 1e-9

    @given(short_text)
    def test_identity_is_one(self, a):
        if a:
            assert jaro_winkler_similarity(a, a) == 1.0


class TestJaccardProperties:
    @given(value_sets, value_sets)
    def test_bounded_and_symmetric(self, a, b):
        score = jaccard_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == jaccard_similarity(b, a)

    @given(value_sets)
    def test_identity(self, a):
        assert jaccard_similarity(a, a) == 1.0

    @given(value_sets, value_sets)
    def test_disjoint_sets_score_zero(self, a, b):
        disjoint_b = {f"__{item}__" for item in b} - a
        if a and disjoint_b:
            assert jaccard_similarity(a, disjoint_b) < 1.0
