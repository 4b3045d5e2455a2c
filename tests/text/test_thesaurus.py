"""Tests for the bundled thesaurus."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcher_support import reference_relation_score, term_corpus
from repro.text.thesaurus import _HYPERNYM_PAIRS, _SYNONYM_GROUPS, Thesaurus, default_thesaurus

#: Lexicon terms, their plurals and inflections, spaced and cased variants,
#: plus arbitrary short text (empty included).
_terms = st.one_of(
    st.builds(
        lambda term, suffix, upper: (term.upper() if upper else term) + suffix,
        st.sampled_from(term_corpus()),
        st.sampled_from(["", "s", "es", "ing", "ed", " ", "1"]),
        st.booleans(),
    ),
    st.text(alphabet="abcdeinrst yS_1", max_size=10),
)


class TestDefaultThesaurus:
    def test_singleton(self):
        assert default_thesaurus() is default_thesaurus()

    def test_core_synonyms(self):
        thesaurus = default_thesaurus()
        assert thesaurus.relation_score("client", "customer") == 1.0
        assert thesaurus.relation_score("country", "nation") == 1.0
        assert thesaurus.relation_score("salary", "wage") == 1.0

    def test_plural_forms_are_matched(self):
        thesaurus = default_thesaurus()
        assert thesaurus.relation_score("clients", "customers") == 1.0

    def test_hypernyms(self):
        thesaurus = default_thesaurus()
        assert thesaurus.relation_score("customer", "person") == pytest.approx(0.8)
        assert thesaurus.relation_score("person", "customer") == pytest.approx(0.8)

    def test_relation_scores_ordering(self):
        thesaurus = default_thesaurus()
        synonym = thesaurus.relation_score("client", "customer")
        hypernym = thesaurus.relation_score("manager", "employee")
        unrelated = thesaurus.relation_score("salary", "country")
        assert synonym == 1.0
        assert hypernym in (0.8, 1.0)
        assert unrelated == 0.0
        assert synonym >= hypernym > unrelated

    def test_identity_scores_one(self):
        assert default_thesaurus().relation_score("street", "street") == 1.0

    def test_contains(self):
        thesaurus = default_thesaurus()
        assert "customer" in thesaurus
        assert "qwertyzxc" not in thesaurus


class TestCustomThesaurus:
    def test_add_group_and_lookup(self):
        thesaurus = Thesaurus()
        thesaurus.add_synonym_group(("foo", "bar"))
        assert thesaurus.relation_score("foo", "bar") == 1.0
        assert thesaurus.relation_score("foo", "baz") == 0.0

    def test_add_hypernym(self):
        thesaurus = Thesaurus()
        thesaurus.add_hypernym("beagle", "dog")
        assert thesaurus.relation_score("beagle", "dog") == pytest.approx(0.8)

    def test_shared_neighbourhood_scores_partial(self):
        thesaurus = Thesaurus()
        thesaurus.add_synonym_group(("alpha", "mid"))
        thesaurus.add_synonym_group(("mid", "omega"))
        assert thesaurus.relation_score("alpha", "omega") >= 0.6

    def test_len_counts_keys(self):
        thesaurus = Thesaurus()
        assert len(thesaurus) == 0
        thesaurus.add_synonym_group(("a1", "b1"))
        assert len(thesaurus) == 2


class TestKeyedLookupsMatchTheReference:
    """The key-table kernel against the parent's re-stemming body, exactly."""

    def test_every_corpus_pair_scores_identically(self):
        thesaurus = default_thesaurus()
        terms = term_corpus()
        assert len(terms) > 300
        for a in terms:
            for b in terms:
                assert thesaurus.relation_score(a, b) == reference_relation_score(
                    thesaurus, a, b
                ), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(_terms, _terms)
    def test_generated_terms_score_identically(self, a, b):
        thesaurus = default_thesaurus()
        assert thesaurus.relation_score(a, b) == reference_relation_score(thesaurus, a, b)

    def test_scores_survive_a_one_entry_key_table(self, monkeypatch):
        terms = term_corpus()[::7]
        expected = [default_thesaurus().relation_score(a, b) for a in terms for b in terms]
        monkeypatch.setattr(Thesaurus, "_KEY_TABLE_LIMIT", 1)
        thesaurus = Thesaurus(_SYNONYM_GROUPS, _HYPERNYM_PAIRS)
        assert [thesaurus.relation_score(a, b) for a in terms for b in terms] == expected
        assert len(thesaurus._keys) == 1

    def test_mutation_is_seen_by_the_next_lookup(self):
        thesaurus = Thesaurus([("alpha", "beta")])
        assert thesaurus.relation_score("alphas", "gamma") == 0.0  # both keys now cached
        before = thesaurus.fingerprint()
        thesaurus.add_synonym_group(("alpha", "gamma"))
        assert thesaurus.relation_score("alphas", "gamma") == 1.0
        thesaurus.add_hypernym("delta", "gamma")
        assert thesaurus.relation_score("gamma", "delta") == 0.8
        assert thesaurus.fingerprint() != before

    def test_the_key_table_is_not_pickled(self):
        thesaurus = Thesaurus(_SYNONYM_GROUPS, _HYPERNYM_PAIRS)
        cold = pickle.dumps(thesaurus)
        for term in term_corpus():
            thesaurus.relation_score(term, "customer")
        assert len(thesaurus._keys) > 300
        assert pickle.dumps(thesaurus) == cold
        clone = pickle.loads(cold)
        assert clone.fingerprint() == thesaurus.fingerprint()
        assert clone.relation_score("clients", "customers") == 1.0
