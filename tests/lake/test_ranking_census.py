"""What scoring a candidate allocates, counted rather than timed.

A lake query reads three numbers off every candidate's ranking — the best
match and how much of the at-least-threshold part survives the 1-1 walk — so
scoring a candidate must not pay for a materialised, sorted ranking:

* no :class:`~repro.matchers.base.Match` per scored column pair (one per
  candidate: the best match ``relatedness`` asks for);
* no :class:`~repro.data.table.ColumnRef` per pair either — the shared
  constructor builds each column's ref once;
* at most one ``sorted`` per candidate from ``MatchResult`` (the thresholded
  part), none from building the result;

and iterating a result afterwards still yields exactly the ranking the eager
representation held.
"""

from __future__ import annotations

import sys

import pytest

from matcher_support import (
    ReferenceMatchResult,
    lakebench_lake,
    reference_semprop_match_prepared,
    reference_tree_match,
)
from repro.data.csv_io import read_csv
from repro.data.table import ColumnRef
from repro.discovery.prepared import PreparedStore
from repro.discovery.search import score_prepared
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
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
    """Counts ``Match()``, ``ColumnRef()`` and ``sorted`` as ``MatchResult`` sees them."""

    def __init__(self, monkeypatch) -> None:
        self.matches = self.refs = self.sorts = 0
        match_class, ref_class, builtin_sorted = base.Match, base.ColumnRef, sorted

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
            census = _Census(monkeypatch)
            results = engine.query(query, mode="unionable")
            stats = engine.last_query_stats
            monkeypatch.undo()
    candidates = {path.stem: read_csv(path) for path in lake_paths}
    assert stats.rerank_count == stats.store_hits == len(results) == len(candidates) == 6
    assert census.matches == len(results)  # relatedness' best(), once a candidate
    assert census.refs <= sum(
        query.num_columns + candidates[result.table_name].num_columns for result in results
    )
    assert census.sorts <= len(results)

    # ... and the objects are there for whoever asks: the parent's exact list.
    query_prepared = matcher.prepare(query)
    for result in results:
        candidate = matcher.prepare(candidates[result.table_name])
        expected = reference_semprop_match_prepared(matcher, query_prepared, candidate)
        assert len(result.matches) == query.num_columns * candidate.table.num_columns
        assert result.matches.matches == expected.matches


def test_one_cupid_pair_ends_in_the_same_constructor(gate_lake, monkeypatch):
    lake_paths, query_path = gate_lake
    query = read_csv(query_path)
    candidate = read_csv(next(path for path in lake_paths if path.stem == "rel_00_joinable"))
    assert (query.num_columns, candidate.num_columns) == (14, 8)
    matcher = CupidMatcher()
    query_prepared, candidate_prepared = matcher.prepare(query), matcher.prepare(candidate)

    census = _Census(monkeypatch)
    result = score_prepared(matcher, query_prepared, candidate_prepared)
    monkeypatch.undo()
    assert census.matches == 1
    assert census.refs <= query.num_columns + candidate.num_columns
    assert census.sorts <= 1

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
    expected = ReferenceMatchResult.from_scores(
        {
            (ColumnRef(query.name, source), ColumnRef(candidate.name, target)): score
            for (source, target), score in weighted.items()
        },
        keep_zero=True,
    )
    assert result.matches.matches == expected.matches
