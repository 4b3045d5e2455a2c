"""Equivalence suite for the two-phase prepare/match matcher protocol.

For every registered matcher (plus the ensemble), the prepared path
``match_prepared(prepare(source), prepare(target))`` must return rankings
byte-identical to the one-shot ``get_matches(source, target)`` path, and a
prepared table must be reusable across many match calls — that reuse is the
whole point of the protocol.
"""

from __future__ import annotations

import pickle

import pytest

from matcher_support import RANKING_READS, reference_from_column_scores
from repro.data.table import Column, Table
from repro.matchers.base import BaseMatcher, PreparedTable
from repro.matchers.coma.matcher import ComaInstanceMatcher, ComaSchemaMatcher
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.distribution_based.matcher import DistributionBasedMatcher
from repro.matchers.embdi.matcher import EmbDIMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import available_matchers
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.matchers.similarity_flooding.matcher import SimilarityFloodingMatcher


def _make_matchers() -> list[BaseMatcher]:
    """One lightly configured instance of every bundled matcher."""
    matchers: list[BaseMatcher] = [
        CupidMatcher(),
        SimilarityFloodingMatcher(max_iterations=50),
        ComaSchemaMatcher(),
        ComaInstanceMatcher(sample_size=50),
        DistributionBasedMatcher(sample_size=50),
        SemPropMatcher(num_permutations=16, sample_size=50),
        JaccardLevenshteinMatcher(sample_size=20),
        EmbDIMatcher(dimensions=8, sentence_length=8, walks_per_node=2, max_rows=20),
    ]
    matchers.append(
        EnsembleMatcher(
            [ComaSchemaMatcher(), JaccardLevenshteinMatcher(sample_size=20)],
            aggregation="score_average",
        )
    )
    return matchers


MATCHERS = _make_matchers()


@pytest.fixture(scope="module")
def tables() -> tuple[Table, Table, list[Table]]:
    query = Table(
        "clients",
        [
            Column("client_name", ["J. Watts", "B. Mei", "Q. Man", "A. Doe", "L. Chen"]),
            Column("country", ["USA", "China", "USA", "UK", "China"]),
            Column("po_number", [39499, 34682, 35472, 40001, 31234]),
        ],
    )
    target = Table(
        "customers",
        [
            Column("customer", ["J. Watts", "A. Doe", "R. Fox", "B. Mei"]),
            Column("nation", ["USA", "UK", "Canada", "China"]),
            Column("order_id", [39499, 40001, 38888, 34682]),
        ],
    )
    extra_candidates = [
        Table(
            "offices",
            [
                Column("cntr", ["USA", "China", "UK", "Canada"]),
                Column("head", ["B. Stan", "J. Ki", "M. Low", "T. Roy"]),
            ],
        ),
        Table(
            "assets",
            [
                Column("asset_id", [1, 2, 3, 4]),
                Column("value", [10.5, 20.25, 30.0, 40.75]),
            ],
        ),
    ]
    return query, target, extra_candidates


@pytest.mark.parametrize("matcher", MATCHERS, ids=lambda m: m.name)
class TestPreparedEquivalence:
    def test_prepared_path_matches_get_matches(self, matcher, tables):
        """match_prepared over prepared tables == the seed get_matches API."""
        query, target, _ = tables
        via_get = matcher.get_matches(query, target)
        via_prepared = matcher.match_prepared(
            matcher.prepare(query), matcher.prepare(target)
        )
        assert via_prepared.matches == via_get.matches

    def test_prepared_query_reusable_across_candidates(self, matcher, tables):
        """One prepared query streamed over many candidates == fresh calls."""
        query, target, extra = tables
        prepared_query = matcher.prepare(query)
        for candidate in [target, *extra]:
            reused = matcher.match_prepared(prepared_query, matcher.prepare(candidate))
            fresh = matcher.get_matches(query, candidate)
            assert reused.matches == fresh.matches

    def test_prepare_labels_payload_with_fingerprint(self, matcher, tables):
        query, _, _ = tables
        prepared = matcher.prepare(query)
        assert isinstance(prepared, PreparedTable)
        assert prepared.table is query
        assert prepared.fingerprint == matcher.fingerprint()

    def test_the_grid_reads_like_the_eager_reference(self, matcher, tables):
        """Every read of the ranking a matcher hands over as its score grid
        equals the per-pair result built from the same scores."""
        query, target, _ = tables
        prepared = matcher.prepare(query), matcher.prepare(target)
        scores = matcher.match_prepared(*prepared).scores()
        assert len(scores) == query.num_columns * target.num_columns
        for name, read in RANKING_READS.items():
            result = matcher.match_prepared(*prepared)
            assert result._state[2] is False, name  # handed over unordered
            assert read(result) == read(reference_from_column_scores(query, target, scores)), name

    def test_fingerprint_survives_a_pickle_round_trip(self, matcher):
        fingerprint = matcher.fingerprint()
        assert pickle.loads(pickle.dumps(matcher)).fingerprint() == fingerprint

    def test_foreign_prepared_table_is_reprepared(self, matcher, tables):
        """A payload from another matcher config is transparently re-prepared."""
        query, target, _ = tables
        foreign = PreparedTable(table=query, fingerprint="someone-else", payload={})
        result = matcher.match_prepared(foreign, matcher.prepare(target))
        assert result.matches == matcher.get_matches(query, target).matches


class TestRegistryCoverage:
    def test_every_registered_matcher_is_in_the_suite(self):
        """The parametrized suite must cover every registered matcher class."""
        covered = {type(m) for m in MATCHERS}
        for cls in available_matchers().values():
            assert cls in covered, f"{cls.__name__} missing from MATCHERS"


class TestEnsembleSharing:
    def test_ensemble_prepares_one_bundle_per_member(self, tables):
        query, _, _ = tables

        calls = []

        class CountingMatcher(JaccardLevenshteinMatcher):
            def prepare(self, table):
                calls.append(table.name)
                return super().prepare(table)

        ensemble = EnsembleMatcher([CountingMatcher(), ComaSchemaMatcher()])
        prepared = ensemble.prepare(query)
        members = prepared.payload["members"]
        assert len(members) == 2
        assert calls == [query.name]
        assert all(isinstance(member, PreparedTable) for member in members)

    def test_ensemble_fingerprint_tracks_member_configs(self):
        """Members differing in prepare-relevant config must not share
        prepared tables; members differing only in match-stage config
        (JL's threshold) deliberately do."""
        from repro.matchers.distribution_based.matcher import DistributionBasedMatcher

        a = EnsembleMatcher([DistributionBasedMatcher(sample_size=100)])
        b = EnsembleMatcher([DistributionBasedMatcher(sample_size=50)])
        assert a.fingerprint() != b.fingerprint()
        c = EnsembleMatcher([JaccardLevenshteinMatcher(threshold=0.8)])
        d = EnsembleMatcher([JaccardLevenshteinMatcher(threshold=0.5)])
        assert c.fingerprint() == d.fingerprint()


class TestFingerprintMemo:
    """``fingerprint()`` is built once, and rebuilt whenever it could change."""

    def test_built_once_however_often_it_is_asked(self, monkeypatch):
        matcher = SemPropMatcher()
        calls = []
        original = matcher.prepare_parameters
        monkeypatch.setattr(matcher, "prepare_parameters", lambda: calls.append(1) or original())
        fingerprint = matcher.fingerprint()
        assert all(matcher.fingerprint() == fingerprint for _ in range(50))
        assert len(calls) == 1

    def test_setting_a_public_attribute_changes_it(self):
        matcher = SemPropMatcher(num_permutations=32)
        before = matcher.fingerprint()
        matcher.num_permutations = 64
        assert matcher.fingerprint() == SemPropMatcher(num_permutations=64).fingerprint() != before
        matcher.num_permutations = 32
        assert matcher.fingerprint() == before

    def test_mutating_the_ontology_changes_it(self):
        from repro.ontology.model import Ontology, OntologyClass

        ontology = Ontology("custom", [OntologyClass("widget", ("widget",))])
        matcher = SemPropMatcher(ontology=ontology)
        before = matcher.fingerprint()
        ontology.add_class(OntologyClass("gadget", ("gadget",)))
        assert matcher.fingerprint() != before
        assert matcher.fingerprint() == SemPropMatcher(ontology=ontology).fingerprint()

    def test_mutating_the_thesaurus_changes_it(self):
        from repro.text.thesaurus import Thesaurus

        thesaurus = Thesaurus(synonym_groups=[("client", "patron")])
        matcher = CupidMatcher(thesaurus=thesaurus)
        before = matcher.fingerprint()
        thesaurus.add_synonym_group(("vendor", "supplier"))
        assert matcher.fingerprint() != before
        assert matcher.fingerprint() == CupidMatcher(thesaurus=thesaurus).fingerprint()

    def test_the_ensemble_follows_its_members(self):
        member = DistributionBasedMatcher(sample_size=100)
        ensemble = EnsembleMatcher([member, ComaSchemaMatcher()])
        before = ensemble.fingerprint()
        member.sample_size = 50
        after = ensemble.fingerprint()
        assert after != before
        assert after == EnsembleMatcher(
            [DistributionBasedMatcher(sample_size=50), ComaSchemaMatcher()]
        ).fingerprint()
        ensemble.aggregation = "borda"
        assert ensemble.fingerprint() == EnsembleMatcher(
            [DistributionBasedMatcher(sample_size=50), ComaSchemaMatcher()], aggregation="borda"
        ).fingerprint()


class TestLegacyBridge:
    def test_matcher_without_either_hook_raises(self):
        """``match_prepared`` is the one abstract method: a matcher without
        it — including one that only overrides ``get_matches`` — cannot be
        instantiated."""

        class EmptyMatcher(BaseMatcher):
            name = "EmptyTest"

            def get_matches(self, source, target):
                return JaccardLevenshteinMatcher().get_matches(source, target)

        with pytest.raises(TypeError, match="match_prepared"):
            EmptyMatcher()

    def test_fingerprint_changes_with_prepare_parameters(self):
        """The fingerprint is the *prepare* identity: parameters the prepare
        stage consumes key separately, match-stage-only parameters share."""
        from repro.matchers.distribution_based.matcher import DistributionBasedMatcher

        assert (
            DistributionBasedMatcher(sample_size=100).fingerprint()
            != DistributionBasedMatcher(sample_size=50).fingerprint()
        )
        assert (
            SemPropMatcher(num_permutations=32).fingerprint()
            != SemPropMatcher(num_permutations=64).fingerprint()
        )
        # JL's threshold only steers the pairwise fuzzy pass.
        assert (
            JaccardLevenshteinMatcher(threshold=0.8).fingerprint()
            == JaccardLevenshteinMatcher(threshold=0.7).fingerprint()
        )
        assert (
            JaccardLevenshteinMatcher().fingerprint()
            == JaccardLevenshteinMatcher().fingerprint()
        )

    def test_fingerprint_covers_private_dependencies(self):
        """Custom ontologies/thesauri must not share prepared artifacts."""
        from repro.ontology.model import Ontology, OntologyClass
        from repro.text.thesaurus import Thesaurus

        custom_ontology = Ontology(
            "custom", [OntologyClass("widget", ("widget", "gadget"))]
        )
        assert (
            SemPropMatcher().fingerprint()
            != SemPropMatcher(ontology=custom_ontology).fingerprint()
        )
        assert SemPropMatcher().fingerprint() == SemPropMatcher().fingerprint()

        custom_thesaurus = Thesaurus(synonym_groups=[("client", "patron")])
        assert (
            CupidMatcher().fingerprint()
            != CupidMatcher(thesaurus=custom_thesaurus).fingerprint()
        )
