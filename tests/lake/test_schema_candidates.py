"""A schema-based matcher's candidates are the lake's sketches.

Cupid, Similarity Flooding and COMA-Schema read only a table's name and
typed columns (``uses_instances`` False).  The lake engine therefore scores
their candidates from the sketches its resident index holds: no CSV read,
no prepared-store read or write, warm or cold — and nothing on the write
side prepares for them.  An instance-based matcher keeps reading the CSV of
every candidate it scores cold.
"""

from __future__ import annotations

import sqlite3

import pytest

from matcher_support import LIGHT_MATCHER_CONFIGS, csv_lake, prospect_lake

from repro.artifacts.watch import LakeWatcher
from repro.cli import main
from repro.data.csv_io import write_csv
from repro.data.table import Column, Table
from repro.discovery.prepared import PREPARED_PAYLOAD_FORMAT, PreparedStore
from repro.discovery.search import DiscoveryEngine
from repro.lake import engine as lake_engine
from repro.lake.build import PrepareReport, build_from_paths, prepare_lake
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.store import SketchStore
from repro.matchers.cupid.matcher import CupidMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import available_matchers, create_matcher

SCHEMA_BASED = ["comaschema", "cupid", "similarityflooding"]


def _signature(results):
    return [(r.table_name, r.joinability, r.unionability) for r in results]


def _matcher(method: str):
    return create_matcher(method, **LIGHT_MATCHER_CONFIGS[method])


class _NoCells(Column):
    """A column of no rows whose cells raise on any read."""

    __slots__ = ()

    @property
    def values(self):
        raise AssertionError(f"a cell of {self.name!r} was read")

    def __len__(self) -> int:
        return 0


def _cell_less(table: Table) -> Table:
    """*table*'s name and typed columns; reading a cell raises."""
    schema = Table(table.name, [Column(c.name, (), c.data_type) for c in table.columns])
    for column in schema.columns:
        column.__class__ = _NoCells
    return schema


def test_the_schema_based_matchers_are_cupid_similarity_flooding_and_coma_schema():
    """The set the lake scores from sketches: a matcher joins it only
    together with the no-cell-read test below."""
    registered = available_matchers()
    assert sorted(n for n, cls in registered.items() if not cls.uses_instances) == SCHEMA_BASED


@pytest.mark.parametrize("method", SCHEMA_BASED)
def test_a_schema_based_prepare_reads_no_cell(method):
    """``prepare`` on a table whose every cell read raises, and the matches
    it gives equal those of the full table."""
    query, tables = prospect_lake(slices=2)
    matcher = _matcher(method)
    prepared_query = matcher.prepare(_cell_less(query))
    for table in tables:
        expected = matcher.get_matches(query, table).matches
        got = matcher.match_prepared(prepared_query, matcher.prepare(_cell_less(table)))
        assert got.matches == expected


def test_the_cell_less_table_catches_a_cell_read():
    """The guard above is live: an instance-based matcher's prepare fails."""
    query, _ = prospect_lake(slices=1)
    with pytest.raises(AssertionError, match="a cell of"):
        _matcher("comainstance").prepare(_cell_less(query))


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """The grid's typed ``prospect`` lake, built from CSVs."""
    directory = tmp_path_factory.mktemp("schema_lake")
    query, tables = prospect_lake(slices=5)
    with SketchStore(directory / "lake.sketches") as store:
        repository = csv_lake(directory / "csv", tables, store)
        yield directory, store, query, repository


def _counted_reads(monkeypatch) -> list:
    """Record every CSV the lake engine reads."""
    reads: list = []
    real = lake_engine.read_csv

    def counting(path, *args, **kwargs):
        reads.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(lake_engine, "read_csv", counting)
    return reads


@pytest.mark.parametrize("method", ["cupid", "semprop"])
def test_a_cold_query_reads_a_csv_only_for_an_instance_based_matcher(lake, monkeypatch, method):
    _, store, query, repository = lake
    matcher = _matcher(method)
    reads = _counted_reads(monkeypatch)
    with LakeDiscoveryEngine(matcher=matcher, store=store) as engine:
        ranking = engine.query(query, mode="combined", top_k=3)
        stats = engine.last_query_stats
    oracle = DiscoveryEngine(matcher=_matcher(method)).discover(
        query, repository, mode="combined", top_k=3
    )
    assert _signature(ranking) == _signature(oracle)
    assert stats.rerank_count == stats.shortlist_size > 0
    assert len(reads) == (stats.rerank_count if matcher.uses_instances else 0)


@pytest.mark.parametrize("method", SCHEMA_BASED)
def test_a_schema_based_query_never_reads_the_rows_an_older_store_holds(
    lake, tmp_path, method
):
    """A store with a row of this matcher for every table, as older code
    wrote them: the query reads none (a read would discard the undecodable
    row) and writes none, and ranks as the oracle does."""
    _, store, query, repository = lake
    matcher = _matcher(method)
    oracle = DiscoveryEngine(matcher=_matcher(method)).discover(query, repository)
    with PreparedStore(tmp_path / "lake.prepared") as prepared_store:
        for name, (content_hash, _) in store.table_meta(store.table_names).items():
            prepared_store.put_raw(
                matcher.fingerprint(), name, content_hash, PREPARED_PAYLOAD_FORMAT, b"old"
            )
        rows = prepared_store.raw_keys()
        with LakeDiscoveryEngine(
            matcher=matcher, store=store, prepared_store=prepared_store
        ) as engine:
            ranking = engine.query(query)
            assert engine.last_query_stats.store_hits == 0
        assert prepared_store.raw_keys() == rows
    assert _signature(ranking) == _signature(oracle)


@pytest.mark.parametrize("method", ["cupid", "semprop"])
def test_a_candidate_whose_csv_vanished_ranks_only_from_its_sketch(tmp_path, method):
    """Deleting a candidate's CSV after ``build``: Cupid still ranks it,
    exactly as before, from its hash-pinned sketch; a cold SemProp query
    skips it (the CSV is unreadable) and ranks the rest."""
    query, tables = prospect_lake(slices=3)
    with SketchStore(tmp_path / "lake.sketches") as store:
        csv_lake(tmp_path / "csv", tables, store)
        with LakeDiscoveryEngine(matcher=_matcher(method), store=store) as engine:
            before = engine.query(query, mode="combined")
            (tmp_path / "csv" / "slice_0.csv").unlink()
            after = engine.query(query, mode="combined")
    assert "slice_0" in [r.table_name for r in before]
    if method == "cupid":
        assert _signature(after) == _signature(before)
    else:
        assert _signature(after) == [s for s in _signature(before) if s[0] != "slice_0"]


# --------------------------------------------------------------------- #
# the write side: nothing to prepare
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("method", SCHEMA_BASED)
def test_prepare_lake_writes_nothing_for_a_schema_based_matcher(lake, tmp_path, method):
    _, store, _, _ = lake
    with PreparedStore(tmp_path / "lake.prepared") as prepared_store:
        assert prepare_lake(store, prepared_store, _matcher(method)) == PrepareReport()
        assert len(prepared_store) == 0


def test_a_build_and_a_watch_that_prepare_cupid_write_no_row(tmp_path):
    _, tables = prospect_lake(slices=2)
    data_dir = tmp_path / "csv"
    data_dir.mkdir()
    paths = [write_csv(table, data_dir / f"{table.name}.csv") for table in tables]
    with SketchStore(tmp_path / "lake.sketches") as store, PreparedStore(
        tmp_path / "lake.prepared"
    ) as prepared_store:
        report = build_from_paths(store, paths, prepare=(prepared_store, CupidMatcher()))
        assert (report.sketched, report.prepared) == (len(tables), 0)
        watcher = LakeWatcher(
            store, data_dir, prepared_store=prepared_store, matcher=CupidMatcher()
        )
        assert watcher.poll_once().prepared == 0
        write_csv(tables[0].rename("copy"), data_dir / "copy.csv")
        polled = watcher.poll_once()
        assert (polled.sketched, polled.prepared) == (1, 0)
        assert len(prepared_store) == 0


def _prepared_rows(store) -> int:
    with sqlite3.connect(f"{store}.prepared") as connection:
        return connection.execute("SELECT COUNT(*) FROM prepared").fetchone()[0]


def test_the_cli_says_a_schema_based_matcher_has_nothing_to_prepare(lake, tmp_path, capsys):
    """``lake prepare Cupid`` after ``lake prepare SemProp`` leaves the rows
    as they were, ``lake watch --prepare Cupid`` writes none, and both say
    so in one line and exit 0."""
    directory, _, _, _ = lake
    store = tmp_path / "lake.sketches"
    assert main(["lake", "build", str(directory / "csv"), "--store", str(store)]) == 0
    assert main(["lake", "prepare", "SemProp", "--store", str(store)]) == 0
    rows = _prepared_rows(store)
    assert rows > 0
    capsys.readouterr()
    assert main(["lake", "prepare", "Cupid", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "Cupid reads only the sketch: nothing to prepare\n"
    assert _prepared_rows(store) == rows
    watched = tmp_path / "watched.sketches"
    watch = ["lake", "watch", str(directory / "csv"), "--store", str(watched)]
    assert main([*watch, "--prepare", "Cupid", "--max-polls", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Cupid reads only the sketch: nothing to prepare"
    assert ", 0 prepared" in out
    assert not (tmp_path / "watched.sketches.prepared").exists()


def test_an_ensemble_with_a_cupid_member_queries_but_stores_no_row(lake, tmp_path):
    """The Ensemble reads instances, so its candidates come from their CSVs;
    the codec refuses its Cupid member's tree, so the write-through stores
    nothing and the ranking is still the oracle's."""
    _, store, query, repository = lake

    def ensemble():
        return EnsembleMatcher([CupidMatcher(), JaccardLevenshteinMatcher(sample_size=8)])

    oracle = DiscoveryEngine(matcher=ensemble()).discover(query, repository, top_k=3)
    with PreparedStore(tmp_path / "lake.prepared") as prepared_store, LakeDiscoveryEngine(
        matcher=ensemble(), store=store, prepared_store=prepared_store
    ) as engine:
        ranking = engine.query(query, top_k=3)
        assert engine.last_query_stats.rerank_count > 0
        assert len(prepared_store) == 0
    assert _signature(ranking) == _signature(oracle)
