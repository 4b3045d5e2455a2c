"""What scoring a candidate allocates, counted rather than timed.

A lake query reads three numbers off every candidate's ranking — the best
match and how much of the at-least-threshold part survives the 1-1 walk — so
scoring a candidate must not pay for a materialised, sorted ranking:

* the matcher hands over its score grid (one ``MatchResult.from_grid`` per
  candidate) and no per-pair result is built (no ``MatchResult(matches)``);
* no :class:`~repro.matchers.base.Match` per scored column pair (one per
  candidate: the best match ``relatedness`` asks for);
* at most 2 :class:`~repro.data.table.ColumnRef` per candidate (the best
  match's) plus 2 per pair at or above the unionability threshold (the part
  the 1-1 walk orders);
* at most one ``sorted`` per candidate from ``MatchResult`` (the thresholded
  part), none from building the result;
* the matcher's ``prepare_parameters`` at most once per query, not twice per
  pair (its fingerprint is memoised);
* no content-hash digest of a query table already hashed (its hash is
  memoised on the table);

and iterating a result afterwards still yields exactly the ranking the eager
representation held.
"""

from __future__ import annotations

import hashlib
import sys
from types import SimpleNamespace

import pytest

from matcher_support import (
    ReferenceMatchResult,
    lakebench_lake,
    reference_semprop_match_prepared,
    reference_tree_match,
)
from repro.data import fingerprint as content_fingerprint
from repro.data.csv_io import read_csv
from repro.data.table import ColumnRef
from repro.discovery.relatedness import DEFAULT_UNION_THRESHOLD
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import score_prepared
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers import base
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.cupid.structural import CupidWeights
from repro.matchers.semprop.matcher import SemPropMatcher


@pytest.fixture(scope="module")
def gate_lake(tmp_path_factory):
    """Six gate-shaped tables and the 14-column query, as files."""
    root = lakebench_lake(tmp_path_factory.mktemp("census") / "gate")
    return sorted((root / "lake").glob("*.csv")), root / "queries" / "query_00_0.csv"


class _Census:
    """Counts ``Match()``, ``ColumnRef()`` and ``sorted`` as ``MatchResult``
    sees them, the results built from grids and from matches, and the
    matcher's ``prepare_parameters`` calls."""

    def __init__(self, monkeypatch, matcher) -> None:
        self.matches = self.refs = self.sorts = self.grids = self.eager = self.parameters = 0
        self.digests = 0
        match_class, ref_class, builtin_sorted = base.Match, base.ColumnRef, sorted
        from_grid, eager_init = base.MatchResult.from_grid.__func__, base.MatchResult.__init__
        prepare_parameters = matcher.prepare_parameters

        def grid(cls, *args, **kwargs):
            self.grids += 1
            return from_grid(cls, *args, **kwargs)

        def eager(result, *args, **kwargs):
            self.eager += 1
            eager_init(result, *args, **kwargs)

        def parameters():
            self.parameters += 1
            return prepare_parameters()

        def blake2b(*args, **kwargs):
            self.digests += 1
            return hashlib.blake2b(*args, **kwargs)

        def match(*args, **kwargs):
            self.matches += 1
            return match_class(*args, **kwargs)

        def ref(*args, **kwargs):
            self.refs += 1
            return ref_class(*args, **kwargs)

        def counting_sorted(*args, **kwargs):
            # ``fingerprint()`` sorts its parameters in the same module.
            caller = sys._getframe(1).f_locals.get("self")
            self.sorts += isinstance(caller, base.MatchResult)
            return builtin_sorted(*args, **kwargs)

        monkeypatch.setattr(base, "Match", match)
        monkeypatch.setattr(base, "ColumnRef", ref)
        monkeypatch.setattr(base, "sorted", counting_sorted, raising=False)
        monkeypatch.setattr(base.MatchResult, "from_grid", classmethod(grid))
        monkeypatch.setattr(base.MatchResult, "__init__", eager)
        # An assignment drops the fingerprint memo: the query rebuilds it once.
        monkeypatch.setattr(matcher, "prepare_parameters", parameters)
        monkeypatch.setattr(content_fingerprint, "hashlib", SimpleNamespace(blake2b=blake2b))

    def assert_lean(self, results, expected) -> None:
        """Per candidate: one grid, one Match, two refs plus two per strong
        pair, and never more refs than the two tables have columns."""
        strong = sum(
            1 for ranking in expected for match in ranking if match.score >= DEFAULT_UNION_THRESHOLD
        )
        columns = sum(
            len({match.source for match in ranking}) + len({match.target for match in ranking})
            for ranking in expected
        )
        assert self.grids == self.matches == len(results) == len(expected)
        assert self.eager == 0
        assert self.refs <= min(2 * len(results) + 2 * strong, columns)
        assert self.sorts <= len(results)
        assert self.parameters == 1
        assert self.digests == 0


def test_warm_serial_semprop_query_builds_no_ranking_objects(gate_lake, tmp_path, monkeypatch):
    lake_paths, query_path = gate_lake
    query = read_csv(query_path)
    matcher = SemPropMatcher()
    with SketchStore(tmp_path / "lake.sketches") as store, PreparedStore(
        tmp_path / "lake.sketches.prepared"
    ) as prepared_store:
        build_from_paths(store, lake_paths)
        prepare_lake(store, prepared_store, matcher)
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            engine.query(query, mode="unionable")  # warm: index built, pools idle
            census = _Census(monkeypatch, matcher)
            results = engine.query(query, mode="unionable")
            stats = engine.last_query_stats
            monkeypatch.undo()
    candidates = {path.stem: read_csv(path) for path in lake_paths}
    assert stats.rerank_count == stats.store_hits == len(results) == len(candidates) == 6
    query_prepared = matcher.prepare(query)
    expected = {
        result.table_name: reference_semprop_match_prepared(
            matcher, query_prepared, matcher.prepare(candidates[result.table_name])
        )
        for result in results
    }
    census.assert_lean(results, list(expected.values()))

    # ... and the objects are there for whoever asks: the parent's exact list.
    for result in results:
        candidate = candidates[result.table_name]
        assert len(result.matches) == query.num_columns * candidate.num_columns
        assert result.matches.matches == expected[result.table_name].matches


def _reference_cupid(matcher, query_prepared, candidate_prepared) -> ReferenceMatchResult:
    """The eager ranking of Cupid's per-pair TreeMatch over two prepared tables."""
    weighted = reference_tree_match(
        query_prepared.payload["tree"],
        candidate_prepared.payload["tree"],
        weights=CupidWeights(
            w_struct=matcher.w_struct,
            leaf_w_struct=matcher.leaf_w_struct,
            th_accept=matcher.th_accept,
        ),
        thesaurus=matcher._thesaurus,
    )
    return ReferenceMatchResult.from_scores(
        {
            (ColumnRef(query_prepared.name, source), ColumnRef(candidate_prepared.name, target)): score
            for (source, target), score in weighted.items()
        },
        keep_zero=True,
    )


def test_warm_cupid_query_builds_no_ranking_objects(gate_lake, tmp_path, monkeypatch):
    """The Cupid twin: candidates scored from their sketches, same census."""
    lake_paths, query_path = gate_lake
    query = read_csv(query_path)
    matcher = CupidMatcher()
    with SketchStore(tmp_path / "lake.sketches") as store:
        build_from_paths(store, lake_paths)
        with LakeDiscoveryEngine(matcher=matcher, store=store) as engine:
            engine.query(query, mode="unionable")
            census = _Census(monkeypatch, matcher)
            results = engine.query(query, mode="unionable")
            monkeypatch.undo()
    candidates = {path.stem: read_csv(path) for path in lake_paths}
    assert len(results) == len(candidates) == 6
    query_prepared = matcher.prepare(query)
    expected = {
        result.table_name: _reference_cupid(
            matcher, query_prepared, matcher.prepare(candidates[result.table_name])
        )
        for result in results
    }
    census.assert_lean(results, list(expected.values()))
    for result in results:
        assert result.matches.matches == expected[result.table_name].matches


def test_one_cupid_pair_ends_in_the_same_constructor(gate_lake, monkeypatch):
    lake_paths, query_path = gate_lake
    query = read_csv(query_path)
    candidate = read_csv(next(path for path in lake_paths if path.stem == "rel_00_joinable"))
    assert (query.num_columns, candidate.num_columns) == (14, 8)
    matcher = CupidMatcher()
    query_prepared, candidate_prepared = matcher.prepare(query), matcher.prepare(candidate)

    census = _Census(monkeypatch, matcher)
    result = score_prepared(matcher, query_prepared, candidate_prepared)
    monkeypatch.undo()
    expected = _reference_cupid(matcher, query_prepared, candidate_prepared)
    census.assert_lean([result], [expected])
    assert result.matches.matches == expected.matches
