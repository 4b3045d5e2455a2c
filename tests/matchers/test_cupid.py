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

from matcher_support import (
    category_compatibility,
    is_leaf,
    lakebench_column_names,
    lakebench_lake,
    leaf_by_name,
    leaves,
    linguistic_similarity,
    name_similarity,
    reference_relation_score,
    reference_tree_match,
    term_corpus,
    walk,
)
from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Column, Table
from repro.data.types import DataType
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.experiments.parameters import default_parameter_grids
from repro.matchers.cupid import linguistic
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.cupid.schema_tree import SchemaElement, SchemaTree, build_schema_tree
from repro.matchers.cupid.structural import CupidWeights, tree_match
from repro.metrics.ranking import recall_at_ground_truth
from repro.telemetry.recorder import TelemetryRecorder, use
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
        tree_leaves = leaves(tree.root)
        assert [leaf.name for leaf in tree_leaves] == clients_table.column_names
        assert all(is_leaf(leaf) for leaf in tree_leaves)

    def test_leaf_by_name(self, clients_table):
        tree = build_schema_tree(clients_table)
        assert leaf_by_name(tree, "PO").data_type is not None
        assert leaf_by_name(tree, "missing") is None

    def test_elements_walk_preorder(self, clients_table):
        tree = build_schema_tree(clients_table)
        elements = list(walk(tree.root))
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


def _two_level_tree(table_name, leaves):
    """A ``schema -> table -> columns`` tree as ``build_schema_tree`` shapes it."""
    table = SchemaElement(table_name, "table")
    for name, data_type in leaves:
        table.add_child(SchemaElement(name, data_type.value, data_type))
    return SchemaTree(SchemaElement(f"{table_name}_schema", "schema", children=[table]), table_name)


def _nested_column_root():
    root = _two_level_tree("deep", [("address", DataType.STRING)]).root
    root.children[0].children[0].add_child(SchemaElement("zip", "string"))
    return root


class TestTreeMatchShape:
    """Only the shape ``build_schema_tree`` builds is scored; nothing else is guessed at."""

    @pytest.mark.parametrize(
        "root",
        [
            SchemaElement("bare_schema", "schema"),
            SchemaElement("flat_schema", "schema", children=[SchemaElement("id", "integer")]),
            SchemaElement(
                "two_schema",
                "schema",
                children=[SchemaElement("t1", "table"), SchemaElement("t2", "table")],
            ),
            _nested_column_root(),
            SchemaElement("table_as_root", "table", children=[SchemaElement("t", "table")]),
        ],
        ids=["no-table", "column-under-schema", "two-tables", "nested-column", "wrong-root"],
    )
    def test_other_shapes_are_refused_on_either_side(self, root, clients_table):
        other = SchemaTree(root, root.name)
        good = build_schema_tree(clients_table)
        with pytest.raises(ValueError, match="schema -> table -> columns"):
            tree_match(other, good)
        with pytest.raises(ValueError, match="schema -> table -> columns"):
            tree_match(good, other)

    def test_a_table_without_columns_matches_nothing_on_either_side(self, clients_table):
        empty = Table("empty", [])
        trees = build_schema_tree(empty), build_schema_tree(clients_table)
        assert tree_match(*trees) == {}
        assert tree_match(*reversed(trees)) == {}
        assert tree_match(trees[0], trees[0]) == {}
        matcher = CupidMatcher()
        assert len(matcher.get_matches(empty, clients_table)) == 0
        assert len(matcher.get_matches(clients_table, empty)) == 0

    def test_duplicate_column_names_keep_the_first_position_and_the_last_score(self):
        tree_a = _two_level_tree(
            "a", [("id", DataType.INTEGER), ("name", DataType.STRING), ("id", DataType.STRING)]
        )
        tree_b = _two_level_tree("b", [("id", DataType.INTEGER)])
        weighted = tree_match(tree_a, tree_b)
        assert list(weighted) == [("id", "id"), ("name", "id")]
        assert list(weighted.items()) == list(reference_tree_match(tree_a, tree_b).items())


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


_schema_names = st.one_of(st.sampled_from(lakebench_column_names()), _identifiers)
_two_level_trees = st.builds(
    _two_level_tree,
    _schema_names,
    st.lists(st.tuples(_schema_names, st.sampled_from(list(DataType))), max_size=15),
)
_unit = st.floats(min_value=0.0, max_value=1.0)


@pytest.fixture(scope="module")
def gate_tree_pairs(tmp_path_factory):
    """Every (query, lake table) tree pair of the lakebench gate fixture."""
    root = lakebench_lake(tmp_path_factory.mktemp("cupid") / "gate")
    lake, queries = (
        [build_schema_tree(read_csv(path)) for path in sorted((root / part).glob("*.csv"))]
        for part in ("lake", "queries")
    )
    return [(query, table) for query in queries for table in lake]


class TestTreeMatchMatchesTheReference:
    """The matrix form returns the per-pair loop's floats, in the loop's key order."""

    def test_every_gate_pair_at_every_paper_grid_point(self, gate_tree_pairs):
        grid = default_parameter_grids()["Cupid"]
        weight_sets = [CupidWeights(), *(CupidWeights(**point) for point in grid.configurations())]
        assert len(weight_sets) == 1 + 4 * 4 * 6 and len(gate_tree_pairs) == 12
        for tree_a, tree_b in gate_tree_pairs:
            for weights in weight_sets:
                expected = reference_tree_match(tree_a, tree_b, weights=weights)
                assert list(tree_match(tree_a, tree_b, weights=weights).items()) == list(
                    expected.items()
                ), (tree_a.table_name, tree_b.table_name, weights)

    @settings(max_examples=150, deadline=None)
    @given(_two_level_trees, _two_level_trees, _unit, _unit, _unit)
    def test_generated_two_level_schemas(self, tree_a, tree_b, w_struct, leaf_w_struct, th_accept):
        weights = CupidWeights(w_struct=w_struct, leaf_w_struct=leaf_w_struct, th_accept=th_accept)
        weighted = tree_match(tree_a, tree_b, weights=weights)
        if tree_a.root.children[0].children and tree_b.root.children[0].children:
            expected = reference_tree_match(tree_a, tree_b, weights=weights)
            assert list(weighted.items()) == list(expected.items())
        else:
            # The reference scored a column-less table node as if it were a
            # column, keyed by the table's name; the header has no such column.
            assert weighted == {}


class TestNamePairTableContract:
    def _all_scores(self, tables):
        trees = [build_schema_tree(table) for table in tables]
        return [tree_match(a, b) for a in trees for b in trees]

    def test_scores_do_not_depend_on_the_table_bound(self, monkeypatch):
        tables = _prospect_tables(3)
        expected = self._all_scores(tables)
        for bound in (1, sys.maxsize):
            monkeypatch.setattr(linguistic, "_NAME_PAIR_LIMIT", bound)
            monkeypatch.setattr(linguistic, "_NAME_TOKENS_LIMIT", bound)
            linguistic._NAME_PAIRS.scores.clear()
            linguistic._NAME_TOKENS.clear()
            assert self._all_scores(tables) == expected
            if bound == 1:
                assert len(linguistic._NAME_PAIRS.scores) == 1
                assert len(linguistic._NAME_TOKENS) == 1

    def test_a_mutated_thesaurus_never_reads_a_stale_score(self):
        source = Table("s", {"vendor_code": ["a", "b"], "branch": ["x", "y"]})
        target = Table("t", {"supplier_code": ["c", "d"], "office": ["p", "q"]})
        fresh = Thesaurus(
            [("client", "customer"), ("vendor", "supplier")],
            [("manager", "employee"), ("branch", "office")],
        )
        expected = CupidMatcher(thesaurus=fresh).get_matches(source, target).matches
        linguistic._NAME_PAIRS.scores.clear()  # what a fresh process starts with

        thesaurus = Thesaurus([("client", "customer")], [("manager", "employee")])
        matcher = CupidMatcher(thesaurus=thesaurus)
        prepared = matcher.prepare(source), matcher.prepare(target)
        for _ in range(100):
            before = matcher.match_prepared(*prepared).matches
        assert before != expected
        thesaurus.add_synonym_group(("vendor", "supplier"))
        thesaurus.add_hypernym("branch", "office")
        assert thesaurus.fingerprint() == fresh.fingerprint()
        assert matcher.match_prepared(*prepared).matches == expected
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
        plan = (matcher, prepared[0])
        cold = len(pickle.dumps(matcher)), len(pickle.dumps(plan))
        keys_before = len(thesaurus._keys)
        hits_before, _ = linguistic.name_pair_work()
        for _ in range(1000):
            matcher.match_prepared(*prepared)
        assert linguistic.name_pair_work()[0] - hits_before > 1000
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
        assert counters["cupid.name_pairs.misses"] == 0
        assert counters["cupid.name_pairs.hits"] > 0

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
        assert calls == {"cupid.name_pairs.hits": 1, "cupid.name_pairs.misses": 1}


class TestTreeMatchWorkCensus:
    """What one match looks up and computes, counted rather than timed."""

    def test_a_match_looks_up_each_column_pair_and_four_node_pairs(
        self, clients_table, offices_table
    ):
        matcher = CupidMatcher()
        for source, target in ((clients_table, offices_table), (offices_table, clients_table)):
            prepared = matcher.prepare(source), matcher.prepare(target)
            for _ in range(2):
                before = sum(linguistic.name_pair_work())
                matcher.match_prepared(*prepared)
                lookups = sum(linguistic.name_pair_work()) - before
                assert lookups == source.num_columns * target.num_columns + 4

    def test_a_repeated_match_computes_no_name_similarity(
        self, monkeypatch, clients_table, offices_table
    ):
        calls: Counter = Counter()
        for name in ("jaro_winkler_similarity", "monge_elkan"):

            def counted(*args, _name=name, _original=getattr(linguistic, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(linguistic, name, counted)
        matcher = CupidMatcher()
        prepared = matcher.prepare(clients_table), matcher.prepare(offices_table)
        linguistic._NAME_PAIRS.scores.clear()  # what a fresh process starts with
        first = matcher.match_prepared(*prepared).matches
        assert calls["monge_elkan"] == 2 * (4 * 3 + 4) and calls["jaro_winkler_similarity"] > 0

        calls.clear()
        _, misses_before = linguistic.name_pair_work()
        assert matcher.match_prepared(*prepared).matches == first
        assert linguistic.name_pair_work()[1] == misses_before
        assert calls == Counter()


_SALT_SCRIPT = """
import sys
from pathlib import Path
from repro.data.csv_io import read_csv
from repro.lake.build import build_from_paths
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.cupid.linguistic import name_pair_work

directory = Path(sys.argv[1])
with SketchStore() as store:
    build_from_paths(store, sorted((directory / "lake").glob("*.csv")))
    with LakeDiscoveryEngine(matcher=CupidMatcher(), store=store) as engine:
        for result in engine.query(read_csv(directory / "query.csv"), top_k=6):
            print(result.table_name, result.joinability.hex(), result.unionability.hex())
            for match in result.matches:
                print(" ", match.source, match.target, match.score.hex())
print("name pairs (hits, misses):", name_pair_work())
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
