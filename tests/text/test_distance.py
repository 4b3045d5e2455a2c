"""Tests for string similarity and set-overlap measures."""

from __future__ import annotations

import inspect
import random

import pytest

from matcher_support import reference_levenshtein_distance
from repro.text.distance import (
    dice_coefficient,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    monge_elkan,
    normalized_levenshtein,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("book", "back", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_symmetry(self):
        assert levenshtein_distance("street", "str") == levenshtein_distance("str", "street")

    def test_takes_two_strings_and_nothing_else(self):
        assert list(inspect.signature(levenshtein_distance).parameters) == ["a", "b"]

    def test_normalized_range(self):
        assert normalized_levenshtein("abc", "abc") == 1.0
        assert normalized_levenshtein("abc", "xyz") == 0.0
        assert 0.0 < normalized_levenshtein("abcd", "abce") < 1.0

    def test_normalized_empty_strings(self):
        assert normalized_levenshtein("", "") == 1.0


#: Letters, a Latin-1 letter and two astral (non-BMP) code points: one
#: Python character each, as the DP saw them.
_ALPHABET = "abcde\u00e9\U0001F600\U00010348"


def _random_text(rng: random.Random, max_length: int) -> str:
    alphabet = _ALPHABET[: rng.randint(1, len(_ALPHABET))]
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_length)))


class TestBitParallelKernel:
    """The bit-parallel kernel against the two-row DP it replaced, with ``==``."""

    def test_equals_the_two_row_dp_on_seeded_pairs(self):
        rng = random.Random(36)
        # Mostly short strings (empty ones included); every 40th pair spans
        # the 64-bit word boundary, up to 160 characters.
        for index in range(20_000):
            max_length = 160 if index % 40 == 0 else 14
            a, b = _random_text(rng, max_length), _random_text(rng, max_length)
            assert levenshtein_distance(a, b) == reference_levenshtein_distance(a, b), (a, b)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 127, 128, 129, 150, 300])
    def test_word_boundary_lengths(self, length):
        rng = random.Random(length)
        a = "".join(rng.choice("abcd") for _ in range(length))
        b = "x" + a[1 : length // 2] + a[length // 2 + 1 :] + "yz"
        assert levenshtein_distance(a, b) == reference_levenshtein_distance(a, b)
        assert levenshtein_distance(a, "") == length
        assert levenshtein_distance(a, a + "\U0001F600") == 1

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("\U0001F600", "", 1),
            ("\U0001F600", "\U0001F601", 1),
            ("a\U0001F600b", "ab", 1),
            ("\U0001F600a", "a\U0001F600", 2),
            ("\u00e9t\u00e9", "ete", 2),
        ],
        ids=["astral-vs-empty", "two-astral", "astral-deleted", "astral-swapped", "latin1-vs-ascii"],
    )
    def test_every_code_point_is_one_character(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_within_a_cutoff_iff_the_banded_dp_was(self):
        """What a threshold caller relies on: the old banded DP reported a
        distance at or below its cutoff exactly when the kernel's distance
        is, and then the same distance."""
        rng = random.Random(15)
        for _ in range(3_000):
            a, b = _random_text(rng, 12), _random_text(rng, 12)
            distance = levenshtein_distance(a, b)
            for cutoff in range(0, 14):
                banded = reference_levenshtein_distance(a, b, max_distance=cutoff)
                assert (banded <= cutoff) == (distance <= cutoff), (a, b, cutoff)
                if distance <= cutoff:
                    assert banded == distance, (a, b, cutoff)


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_winkler_boosts_shared_prefix(self):
        plain = jaro_similarity("prefixes", "prefixed")
        boosted = jaro_winkler_similarity("prefixes", "prefixed")
        assert boosted >= plain

    def test_winkler_in_unit_interval(self):
        assert 0.0 <= jaro_winkler_similarity("abc", "zzz") <= 1.0


class TestSetMeasures:
    def test_jaccard(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_jaccard_empty_sets(self):
        assert jaccard_similarity([], []) == 1.0
        assert jaccard_similarity([1], []) == 0.0

    def test_dice(self):
        assert dice_coefficient({1, 2}, {2, 3}) == pytest.approx(0.5)


class TestOtherMeasures:
    def test_monge_elkan_identical_tokens(self):
        assert monge_elkan(["customer", "name"], ["customer", "name"]) == pytest.approx(1.0)

    def test_monge_elkan_empty(self):
        assert monge_elkan([], ["a"]) == 0.0

    def test_monge_elkan_partial(self):
        score = monge_elkan(["customer"], ["client", "customer_id"])
        assert 0.5 < score <= 1.0
