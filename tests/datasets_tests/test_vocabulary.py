"""Tests for the deterministic value sampler."""

from __future__ import annotations

import pytest

from repro.datasets.vocabulary import COMPANY_WORDS, COUNTRIES, COUNTRY_CODES, ValueSampler


class TestValueSampler:
    def test_deterministic_given_seed(self):
        a = ValueSampler(seed=3)
        b = ValueSampler(seed=3)
        assert [a.person_name() for _ in range(5)] == [b.person_name() for _ in range(5)]

    def test_person_name_format(self):
        name = ValueSampler(1).person_name()
        assert len(name.split()) == 2

    def test_street_address_format(self):
        address = ValueSampler(2).street_address()
        number, rest = address.split(",", 1)
        assert number.strip().isdigit()
        assert rest.strip()

    def test_postal_code_is_five_digits(self):
        code = ValueSampler(3).postal_code()
        assert len(code) == 5 and code.isdigit()

    def test_email_contains_at(self):
        assert "@" in ValueSampler(4).email()
        assert ValueSampler(4).email("John Doe").startswith("john.doe@")

    def test_amount_bounds(self):
        sampler = ValueSampler(5)
        for _ in range(20):
            value = sampler.amount(10, 20)
            assert 10 <= value <= 20

    def test_integer_bounds(self):
        sampler = ValueSampler(6)
        assert all(0 <= sampler.integer(0, 3) <= 3 for _ in range(20))

    def test_identifier_prefix_and_width(self):
        identifier = ValueSampler(7).identifier("AGY", 4)
        assert identifier.startswith("AGY")
        assert len(identifier) == 7

    def test_hash_token_hex(self):
        token = ValueSampler(8).hash_token(12)
        assert len(token) == 12
        assert all(c in "0123456789abcdef" for c in token)

    def test_date_format(self):
        date = ValueSampler(9).date(2000, 2001)
        year, month, day = date.split("-")
        assert 2000 <= int(year) <= 2001
        assert 1 <= int(month) <= 12

    def test_phone_format(self):
        country, area, number = ValueSampler(10).phone().lstrip("+").split("-")
        assert 1 <= int(country) <= 99
        assert len(area) == 3 and len(number) == 7

    def test_company_is_two_vocabulary_words(self):
        first, second = ValueSampler(11).company().split(" ")
        assert first in COMPANY_WORDS and second in COMPANY_WORDS

    def test_sentence_draws_its_length_from_the_word_list(self):
        words = ValueSampler(12).sentence(["alpha", "beta"], length=5).split(" ")
        assert len(words) == 5 and set(words) <= {"alpha", "beta"}

    def test_every_country_has_alternative_encoding(self):
        assert set(COUNTRY_CODES) == set(COUNTRIES)
