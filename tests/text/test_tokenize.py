"""Tests for identifier and value tokenisation."""

from __future__ import annotations

import pytest

from repro.text.tokenize import (
    character_ngrams,
    expand_abbreviation,
    normalize_identifier,
    split_identifier,
    tokenize_identifier,
    word_tokens,
)


class TestSplitIdentifier:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("customerAddressLine", ["customer", "address", "line"]),
            ("CUST_ADDR", ["cust", "addr"]),
            ("postal-code", ["postal", "code"]),
            ("C_Name", ["c", "name"]),
            ("", []),
            ("simple", ["simple"]),
        ],
    )
    def test_splitting(self, name, expected):
        assert split_identifier(name) == expected

    def test_camel_case_with_acronym(self):
        assert split_identifier("HTTPServerPort") == ["http", "server", "port"]


class TestAbbreviations:
    def test_known_abbreviation_expanded(self):
        assert expand_abbreviation("addr") == "address"
        assert expand_abbreviation("Cntr") == "country"

    def test_unknown_token_lowercased(self):
        assert expand_abbreviation("Widget") == "widget"

    def test_tokenize_identifier_expands(self):
        assert tokenize_identifier("cust_addr") == ["customer", "address"]

    def test_tokenize_identifier_without_expansion(self):
        assert tokenize_identifier("cust_addr", expand=False) == ["cust", "addr"]


class TestNormalize:
    def test_normalize_identifier(self):
        assert normalize_identifier("Client-Name ") == "client name"

    def test_word_tokens(self):
        assert word_tokens("B. Mei, 8 Fly St.") == ["b", "mei", "8", "fly", "st"]


class TestValuesAndNgrams:
    def test_character_ngrams_padded(self):
        grams = character_ngrams("ab", n=3)
        assert grams[0] == "##a"
        assert grams[-1] == "b##"

    def test_character_ngrams_unpadded(self):
        assert character_ngrams("abcd", n=3, pad=False) == ["abc", "bcd"]

    def test_character_ngrams_invalid_size(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", n=0)

    def test_character_ngrams_empty_string(self):
        assert character_ngrams("", n=3, pad=False) == []
