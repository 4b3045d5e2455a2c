"""Tests for the SemProp matcher."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from matcher_support import lakebench_column_names, reference_semprop_match_prepared
from repro.data.table import Column, Table
from repro.discovery import prepared_codec
from repro.matchers.base import PreparedTable
from repro.matchers.semprop import SemPropMatcher, coherence_score, link_to_ontology
from repro.ontology.domain import business_ontology, chemistry_ontology
from repro.ontology.model import Ontology, OntologyClass
from repro.telemetry import recorder as telemetry_recorder


class TestSemanticLinking:
    def test_links_are_sorted_and_thresholded(self):
        links = link_to_ontology("customer_name", business_ontology(), threshold=0.3)
        strengths = [link.strength for link in links]
        assert strengths == sorted(strengths, reverse=True)
        assert all(s >= 0.3 for s in strengths)

    def test_strict_threshold_gives_no_links(self):
        links = link_to_ontology("xqzt_qq", business_ontology(), threshold=0.99)
        assert links == []

    def test_top_k_limits_links(self):
        links = link_to_ontology("customer", business_ontology(), threshold=0.0, top_k=2)
        assert len(links) <= 2

    def test_coherence_requires_related_classes(self):
        ontology = business_ontology()
        links_a = link_to_ontology("customer", ontology, threshold=0.3)
        links_b = link_to_ontology("client", ontology, threshold=0.3)
        links_c = link_to_ontology("zipcode", ontology, threshold=0.3)
        assert coherence_score(links_a, links_b, ontology) >= coherence_score(links_a, links_c, ontology)

    def test_coherence_empty_links(self):
        assert coherence_score([], [], business_ontology()) == 0.0


class TestSemPropMatcher:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SemPropMatcher(semantic_threshold=1.4)

    def test_complete_ranking(self, clients_table, offices_table):
        matcher = SemPropMatcher(num_permutations=32)
        result = matcher.get_matches(clients_table, offices_table)
        assert len(result) == clients_table.num_columns * offices_table.num_columns
        assert all(0.0 <= m.score <= 1.0 for m in result)

    def test_value_overlap_fallback_ranks_shared_values(self):
        source = Table("s", {"qqq": ["alpha", "beta", "gamma", "delta"] * 3})
        target = Table(
            "t",
            {
                "zzz": ["alpha", "beta", "gamma", "delta"] * 3,
                "www": ["one", "two", "three", "four"] * 3,
            },
        )
        matcher = SemPropMatcher(semantic_threshold=0.95, num_permutations=64)
        result = matcher.get_matches(source, target)
        assert result.ranked_pairs()[0] == ("qqq", "zzz")

    def test_custom_ontology_accepted(self, clients_table, offices_table):
        matcher = SemPropMatcher(ontology=chemistry_ontology(), num_permutations=32)
        result = matcher.get_matches(clients_table, offices_table)
        assert len(result) > 0

    def test_semantic_matches_rank_above_syntactic(self):
        # 'country' links to the ontology for both sides (semantic match);
        # the hash columns only get weak syntactic evidence.
        source = Table("s", {"country": ["USA", "China", "France"], "hashcol": ["ab12", "cd34", "ef56"]})
        target = Table("t", {"nation": ["Japan", "Brazil", "Spain"], "token": ["zz98", "yy87", "xx76"]})
        matcher = SemPropMatcher(semantic_threshold=0.4, coherent_threshold=0.2, num_permutations=32)
        scores = matcher.get_matches(source, target).scores()
        assert scores[("country", "nation")] > scores[("hashcol", "token")]


class TestKernelAgainstThePerCellReference:
    """The array kernel scores every pair with the same double the loop did."""

    @pytest.fixture(scope="class")
    def gate_tables(self) -> list[PreparedTable]:
        """The gate lake's column names, 13 to a table, with graded value overlap."""
        names = lakebench_column_names()
        assert len(names) == 117
        matcher = SemPropMatcher()
        return [
            matcher.prepare(
                Table(
                    f"gate_{start // 13}",
                    {
                        name: [f"v{(5 * (start + k) + row % (12 + k)) % 60}" for row in range(30)]
                        for k, name in enumerate(names[start : start + 13])
                    },
                )
            )
            for start in range(0, len(names), 13)
        ]

    @pytest.mark.parametrize("coherent_threshold", [0.0, 0.3, 1.0])
    def test_every_gate_table_pair(self, gate_tables, coherent_threshold):
        matcher = SemPropMatcher(coherent_threshold=coherent_threshold)
        semantic = syntactic = 0
        for source in gate_tables:
            for target in gate_tables:
                result = matcher.match_prepared(source, target)
                expected = reference_semprop_match_prepared(matcher, source, target)
                assert result.matches == expected.matches
                assert all(type(match.score) is float for match in result)
                semantic += sum(1 for match in result if match.score >= 0.5)
                syntactic += sum(1 for match in result if 0.0 < match.score < 0.5)
        # Both branches were really taken (at 0.0 every pair is semantic).
        assert semantic > 0
        assert (syntactic > 0) == (coherent_threshold > 0.0)

    def _crafted(self, matcher, name, signatures, links=None) -> PreparedTable:
        table = Table(name, {column: [] for column in signatures})
        rows = [list(values) for values in signatures.values()]
        return PreparedTable(
            table=table,
            fingerprint=matcher.fingerprint(),
            payload={
                "links": links or {column: [] for column in signatures},
                "signatures": np.array(rows, dtype=np.uint32),
                "set_sizes": np.array([len(row) for row in rows], dtype=np.int64),
            },
        )

    def test_an_estimate_equal_to_the_threshold_is_accepted(self):
        matcher = SemPropMatcher()  # minhash_threshold 0.25 == 32 / 128 exactly
        source = self._crafted(matcher, "s", {"q": range(128)})
        target = self._crafted(
            matcher,
            "t",
            {
                "at": [*range(32), *range(1000, 1096)],
                "below": [*range(31), *range(1000, 1097)],
                "none": range(1000, 1128),
            },
        )
        result = matcher.match_prepared(source, target)
        assert result.scores() == {
            ("q", "at"): 0.5 * (32 / 128),
            ("q", "below"): 0.25 * (31 / 128),
            ("q", "none"): 0.0,
        }
        assert result.matches == reference_semprop_match_prepared(matcher, source, target).matches

    @pytest.mark.parametrize("coherent_threshold", [0.0, 0.3, 1.0])
    def test_no_links_all_links_and_no_columns(self, coherent_threshold):
        matcher = SemPropMatcher(coherent_threshold=coherent_threshold, num_permutations=32)
        values = ["ann", "bob", "cy", "di"]
        linkless = matcher.prepare(Table("linkless", {"zzqx": values, "qqq": ["ann", "bob"] * 2}))
        linked = matcher.prepare(
            Table("linked", {"customer": values, "country": ["bob", "cy"] * 2, "client": ["di"] * 4})
        )
        empty = matcher.prepare(Table("empty", {}))
        assert not any(linkless.payload["links"].values())
        assert all(linked.payload["links"].values())
        tables = (linkless, linked, empty)
        for source in tables:
            for target in tables:
                result = matcher.match_prepared(source, target)
                expected = reference_semprop_match_prepared(matcher, source, target)
                assert result.matches == expected.matches
                assert len(result) == source.header.num_columns * target.header.num_columns

    def test_mismatched_signature_widths_still_raise(self):
        matcher = SemPropMatcher()
        source = self._crafted(matcher, "s", {"q": range(128)})
        narrow = self._crafted(matcher, "t", {"c": range(16)})
        with pytest.raises(ValueError, match="same number of permutations"):
            matcher.match_prepared(source, narrow)


def _uncached_payload(matcher: SemPropMatcher, table: Table) -> bytes:
    """The stored row of a prepare that links every name from scratch."""
    matcher._link_table.clear()
    return prepared_codec.encode(matcher.prepare(table))


class TestLinkTable:
    """Each distinct column name is linked once; the payload bytes never notice."""

    def _tables(self):
        shared = {"customer_name": ["ann", "bob"], "country": ["nl", "de"], "zzqx": ["1", "2"]}
        first = Table("first", shared)
        second = Table("second", {**shared, "order_total": ["3", "4"]})
        return first, second

    def test_payload_bytes_are_the_same_cold_and_warm(self):
        matcher = SemPropMatcher(num_permutations=16)
        first, second = self._tables()
        cold = [_uncached_payload(matcher, table) for table in (first, second)]
        matcher._link_table.clear()
        warm = [
            prepared_codec.encode(matcher.prepare(table))
            for table in (first, second, first)  # second shares three names with first
        ]
        assert warm == [cold[0], cold[1], cold[0]]
        assert len(matcher._link_table) == 4

    def test_counters_report_hits_and_misses_in_two_calls(self, monkeypatch):
        matcher = SemPropMatcher(num_permutations=16)
        first, second = self._tables()
        calls = []
        monkeypatch.setattr(
            telemetry_recorder, "count", lambda name, value=1: calls.append((name, value))
        )
        matcher.prepare(first)
        matcher.prepare(second)
        assert calls == [
            ("semprop.links.hits", 0),
            ("semprop.links.misses", 3),
            ("semprop.links.hits", 3),
            ("semprop.links.misses", 1),
        ]

    def test_threshold_and_ontology_changes_relink(self):
        ontology = Ontology("tiny", [OntologyClass("Customer", labels=("customer", "client"))])
        matcher = SemPropMatcher(num_permutations=16, semantic_threshold=0.9, ontology=ontology)
        table = Table("t", {"client_name": ["a"], "gizmo": ["b"]})
        assert not any(matcher.prepare(table).payload["links"].values())
        matcher.semantic_threshold = 0.3
        relinked = matcher.prepare(table).payload["links"]
        assert [link.ontology_class for link in relinked["client_name"]] == ["Customer"]
        assert relinked["gizmo"] == []
        ontology.add_class(OntologyClass("Widget", labels=("gizmo", "gadget")))
        assert [
            link.ontology_class for link in matcher.prepare(table).payload["links"]["gizmo"]
        ] == ["Widget"]

    def test_the_link_table_is_bounded_and_not_pickled(self, monkeypatch):
        matcher = SemPropMatcher(num_permutations=16)
        first, second = self._tables()
        expected = _uncached_payload(matcher, second)
        monkeypatch.setattr(SemPropMatcher, "_LINK_TABLE_LIMIT", 1)
        matcher._link_table.clear()
        matcher.prepare(first)
        assert prepared_codec.encode(matcher.prepare(second)) == expected
        assert len(matcher._link_table) == 1
        shipped = pickle.dumps(matcher)
        assert b"zzqx" not in shipped and b"order_total" not in shipped
        clone = pickle.loads(shipped)
        assert clone._link_table == {}
        assert clone.prepare(second).payload["links"] == (
            prepared_codec.decode(expected).payload["links"]
        )
