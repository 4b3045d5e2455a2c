"""Tests for the Cupid matcher."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcher_support import lakebench_column_names, reference_relation_score, term_corpus
from repro.data.csv_io import write_csv
from repro.data.table import Column, Table
from repro.datasets import tpcdi_prospect_table
from repro.discovery.search import PairScorer
from repro.matchers.cupid import CupidMatcher, build_schema_tree, name_similarity, tree_match
from repro.matchers.cupid import linguistic
from repro.matchers.cupid.linguistic import category_compatibility, linguistic_similarity
from repro.matchers.cupid.schema_tree import SchemaElement
from repro.matchers.cupid.structural import CupidWeights
from repro.metrics.ranking import recall_at_ground_truth
from repro.telemetry import TelemetryRecorder, use
from repro.telemetry import recorder as telemetry_recorder
from repro.text.distance import jaro_winkler_similarity, monge_elkan
from repro.text.thesaurus import Thesaurus, default_thesaurus
from repro.text.tokenize import tokenize_identifier


def reference_name_similarity(name_a, name_b, thesaurus=None):
    """``name_similarity`` as it was before the token-pair table (PR 19).

    Kept verbatim as the reference: tokenises both names on every call and
    scores every token pair from scratch, through the uncached thesaurus
    reference.
    """
    thesaurus = thesaurus or default_thesaurus()
    tokens_a = tokenize_identifier(name_a)
    tokens_b = tokenize_identifier(name_b)
    if not tokens_a or not tokens_b:
        return 0.0

    def token_score(token_a, token_b):
        lexical = reference_relation_score(thesaurus, token_a, token_b)
        string = jaro_winkler_similarity(token_a, token_b)
        return max(lexical, string)

    forward = monge_elkan(tokens_a, tokens_b, inner=token_score)
    backward = monge_elkan(tokens_b, tokens_a, inner=token_score)
    return (forward + backward) / 2.0


def _prospect_tables(count, rows=12):
    return [
        tpcdi_prospect_table(num_rows=rows, seed=40 + i).rename(f"prospects_{i}")
        for i in range(count)
    ]


class TestSchemaTree:
    def test_tree_structure(self, clients_table):
        tree = build_schema_tree(clients_table)
        assert tree.table_name == "clients"
        leaves = tree.leaves()
        assert [leaf.name for leaf in leaves] == clients_table.column_names
        assert all(leaf.is_leaf for leaf in leaves)

    def test_leaf_by_name(self, clients_table):
        tree = build_schema_tree(clients_table)
        assert tree.leaf_by_name("PO").data_type is not None
        assert tree.leaf_by_name("missing") is None

    def test_elements_walk_preorder(self, clients_table):
        tree = build_schema_tree(clients_table)
        elements = tree.elements()
        assert elements[0].category == "schema"
        assert elements[1].category == "table"


class TestLinguisticMatching:
    def test_identical_names_score_high(self):
        assert name_similarity("customer_name", "customer_name") == pytest.approx(1.0)

    def test_synonyms_score_high(self):
        assert name_similarity("client", "customer") >= 0.9

    def test_abbreviations_recovered(self):
        assert name_similarity("cust_addr", "customer_address") >= 0.8

    def test_unrelated_names_score_low(self):
        assert name_similarity("salary", "country") < 0.6

    def test_empty_name(self):
        assert name_similarity("", "anything") == 0.0

    def test_category_compatibility_leaves(self):
        int_leaf = SchemaElement("a", "integer", data_type=None)
        # leaves without data types fall back to UNKNOWN compatibility
        assert category_compatibility(int_leaf, int_leaf) > 0.0

    def test_linguistic_similarity_scales_with_category(self):
        from repro.data.types import DataType

        left = SchemaElement("amount", "integer", data_type=DataType.INTEGER)
        right_same = SchemaElement("amount", "integer", data_type=DataType.INTEGER)
        right_other = SchemaElement("amount", "string", data_type=DataType.STRING)
        assert linguistic_similarity(left, right_same) > linguistic_similarity(left, right_other)


class TestTreeMatch:
    def test_returns_all_leaf_pairs(self, clients_table, offices_table):
        weighted = tree_match(build_schema_tree(clients_table), build_schema_tree(offices_table))
        assert len(weighted) == clients_table.num_columns * offices_table.num_columns

    def test_scores_in_unit_interval(self, clients_table, offices_table):
        weighted = tree_match(build_schema_tree(clients_table), build_schema_tree(offices_table))
        assert all(0.0 <= score <= 1.0 for score in weighted.values())

    def test_country_abbreviation_matches(self, clients_table, offices_table):
        weighted = tree_match(build_schema_tree(clients_table), build_schema_tree(offices_table))
        country_scores = {pair: score for pair, score in weighted.items() if pair[0] == "Country"}
        best = max(country_scores, key=country_scores.get)
        assert best == ("Country", "Cntr")


class TestCupidMatcher:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CupidMatcher(w_struct=1.5)
        with pytest.raises(ValueError):
            CupidMatcher(th_accept=-0.1)

    def test_identical_schemas_perfect_recall(self, unionable_pair):
        matcher = CupidMatcher()
        result = matcher.get_matches(unionable_pair.source, unionable_pair.target)
        recall = recall_at_ground_truth(result.ranked_pairs(), unionable_pair.ground_truth)
        assert recall == 1.0

    def test_complete_ranking(self, clients_table, offices_table):
        result = CupidMatcher().get_matches(clients_table, offices_table)
        assert len(result) == clients_table.num_columns * offices_table.num_columns

    def test_synonym_columns_matched(self):
        source = Table("s", {"client": ["a", "b"], "salary": [1, 2]})
        target = Table("t", {"customer": ["c", "d"], "wage": [3, 4]})
        result = CupidMatcher().get_matches(source, target)
        top_two = result.ranked_pairs()[:2]
        assert ("client", "customer") in top_two
        assert ("salary", "wage") in top_two

    def test_parameters_exposed(self):
        matcher = CupidMatcher(w_struct=0.4, leaf_w_struct=0.2, th_accept=0.6)
        params = matcher.parameters()
        assert params["w_struct"] == 0.4
        assert params["th_accept"] == 0.6


#: Words joined into camelCase / snake_case / spaced identifiers, optionally
#: pluralised or numbered; plus arbitrary identifier-ish text (empty included).
_words = st.sampled_from(term_corpus())
_identifiers = st.one_of(
    st.builds(
        lambda words, style, plural, digits: {
            "camel": words[0] + "".join(word.title() for word in words[1:]),
            "snake": "_".join(words),
            "upper": "_".join(words).upper(),
            "spaced": " ".join(words),
        }[style]
        + plural
        + digits,
        st.lists(_words, min_size=1, max_size=3),
        st.sampled_from(["camel", "snake", "upper", "spaced"]),
        st.sampled_from(["", "s", "es"]),
        st.sampled_from(["", "1", "_2", "42"]),
    ),
    st.text(alphabet="abcEFG_ -19", max_size=12),
)


class TestNameSimilarityMatchesTheReference:
    """The tabled kernel returns the very floats the uncached body does."""

    def test_every_lakebench_name_pair_is_bit_identical(self):
        names = lakebench_column_names()
        for a in names:
            for b in names:
                assert name_similarity(a, b) == reference_name_similarity(a, b), (a, b)

    def test_corpus_terms_as_names_are_bit_identical(self):
        terms = term_corpus()[::4]
        for a in terms:
            for b in terms:
                assert name_similarity(a, b) == reference_name_similarity(a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(_identifiers, _identifiers)
    def test_generated_identifiers_are_bit_identical(self, a, b):
        assert name_similarity(a, b) == reference_name_similarity(a, b)
        assert name_similarity(b, a) == reference_name_similarity(b, a)


class TestTokenPairTableContract:
    def _all_scores(self, tables):
        trees = [build_schema_tree(table) for table in tables]
        return [tree_match(a, b) for a in trees for b in trees]

    def test_scores_do_not_depend_on_the_table_bound(self, monkeypatch):
        tables = _prospect_tables(3)
        expected = self._all_scores(tables)
        for bound in (1, sys.maxsize):
            monkeypatch.setattr(linguistic, "_TOKEN_PAIR_LIMIT", bound)
            monkeypatch.setattr(linguistic, "_NAME_TOKENS_LIMIT", bound)
            linguistic._TOKEN_PAIRS.scores.clear()
            linguistic._NAME_TOKENS.clear()
            assert self._all_scores(tables) == expected
            if bound == 1:
                assert len(linguistic._TOKEN_PAIRS.scores) == 1
                assert len(linguistic._NAME_TOKENS) == 1

    def test_a_mutated_thesaurus_never_reads_a_stale_score(self):
        source = Table("s", {"vendor_code": ["a", "b"], "branch": ["x", "y"]})
        target = Table("t", {"supplier_code": ["c", "d"], "office": ["p", "q"]})
        fresh = Thesaurus(
            [("client", "customer"), ("vendor", "supplier")],
            [("manager", "employee"), ("branch", "office")],
        )
        expected = CupidMatcher(thesaurus=fresh).get_matches(source, target).to_records()
        linguistic._TOKEN_PAIRS.scores.clear()  # what a fresh process starts with

        thesaurus = Thesaurus([("client", "customer")], [("manager", "employee")])
        matcher = CupidMatcher(thesaurus=thesaurus)
        prepared = matcher.prepare(source), matcher.prepare(target)
        for _ in range(100):
            before = matcher.match_prepared(*prepared).to_records()
        assert before != expected
        thesaurus.add_synonym_group(("vendor", "supplier"))
        thesaurus.add_hypernym("branch", "office")
        assert thesaurus.fingerprint() == fresh.fingerprint()
        assert matcher.match_prepared(*prepared).to_records() == expected
        for names in (("vendor_code", "supplier_code"), ("branch", "office")):
            assert name_similarity(*names, thesaurus=thesaurus) == reference_name_similarity(
                *names, thesaurus=fresh
            )

    def test_nothing_rides_along_in_a_pickle(self):
        thesaurus = Thesaurus([("client", "customer"), ("salary", "wage")])
        matcher = CupidMatcher(thesaurus=thesaurus)
        source = Table("s", {"client_name": ["a"], "zip": ["b"], "salary": [1]})
        target = Table("t", {"customer": ["c"], "postal_code": ["d"], "wage": [2]})
        prepared = matcher.prepare(source), matcher.prepare(target)
        plan = (PairScorer(matcher), prepared[0])
        cold = len(pickle.dumps(matcher)), len(pickle.dumps(plan))
        keys_before = len(thesaurus._keys)
        hits_before, _ = linguistic.token_pair_work()
        for _ in range(1000):
            matcher.match_prepared(*prepared)
        assert linguistic.token_pair_work()[0] - hits_before > 1000
        assert len(thesaurus._keys) > keys_before
        assert (len(pickle.dumps(matcher)), len(pickle.dumps(plan))) == cold
        assert b"postal" not in pickle.dumps(matcher)

    def test_a_fresh_matcher_instance_hits_the_process_table(self):
        tables = _prospect_tables(2)
        first = CupidMatcher()
        first.match_prepared(first.prepare(tables[0]), first.prepare(tables[1]))
        clone = pickle.loads(pickle.dumps(CupidMatcher()))  # what a pool worker holds
        recorder = TelemetryRecorder()
        with use(recorder):
            clone.match_prepared(clone.prepare(tables[0]), clone.prepare(tables[1]))
        counters = recorder.snapshot().counters
        assert counters["cupid.token_pairs.misses"] == 0
        assert counters["cupid.token_pairs.hits"] > 0

    def test_counters_cost_two_calls_per_match(self, monkeypatch):
        matcher = CupidMatcher()
        tables = _prospect_tables(2)
        prepared = [matcher.prepare(table) for table in tables]
        calls: Counter = Counter()
        original = telemetry_recorder.count

        def counted(name, value=1):
            calls[name] += 1
            return original(name, value)

        monkeypatch.setattr(telemetry_recorder, "count", counted)
        matcher.match_prepared(prepared[0], prepared[1])
        assert calls == {"cupid.token_pairs.hits": 1, "cupid.token_pairs.misses": 1}


_SALT_SCRIPT = """
import sys
from pathlib import Path
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths
from repro.data.csv_io import read_csv
from repro.matchers.cupid import CupidMatcher
from repro.matchers.cupid.linguistic import token_pair_work

directory = Path(sys.argv[1])
with SketchStore() as store:
    build_from_paths(store, sorted((directory / "lake").glob("*.csv")))
    with LakeDiscoveryEngine(matcher=CupidMatcher(), store=store) as engine:
        for result in engine.query(read_csv(directory / "query.csv"), top_k=6):
            print(result.table_name, result.joinability.hex(), result.unionability.hex())
            for match in result.matches:
                print(" ", match.source, match.target, match.score.hex())
print("token pairs (hits, misses):", token_pair_work())
"""


def test_cupid_rankings_and_work_do_not_depend_on_the_hash_salt(tmp_path):
    """ROADMAP 2b, settled: three salts, one ranking, one work census."""
    (tmp_path / "lake").mkdir()
    for table in _prospect_tables(6, rows=20):
        write_csv(table, tmp_path / "lake" / f"{table.name}.csv")
    write_csv(tpcdi_prospect_table(num_rows=20, seed=99), tmp_path / "query.csv")
    source = os.pathsep.join(p for p in sys.path if p)
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _SALT_SCRIPT, str(tmp_path)],
            env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": source},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for salt in ("1", "2", "3")
    ]
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, stderr
        outputs.append(stdout)
    assert outputs[0].count("\n") > 7 and "misses): (" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]
