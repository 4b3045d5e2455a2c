"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import re
import socket
import sqlite3
import threading
from pathlib import Path

import pytest

from repro.artifacts.manifest import MANIFEST_NAME
from repro.cli import build_parser, main
from repro.cli.options import (
    matcher_name,
    non_negative_int,
    port_number,
    positive_float,
    positive_int,
)
from repro.data.csv_io import write_csv
from repro.data.table import Table


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("coverage", "parameters"):
            args = parser.parse_args([command])
            assert args.command == command



class TestOptionTypes:
    """The shared ``type=`` callables, at the edges of what each accepts."""

    @pytest.mark.parametrize(
        ("convert", "text", "expected"),
        [
            (positive_int, "1", 1),
            (non_negative_int, "0", 0),
            (port_number, "0", 0),
            (port_number, "65535", 65535),
            (positive_float, "0.25", 0.25),
            (matcher_name, "ComaSchema", "ComaSchema"),
        ],
        ids=[
            "positive_int",
            "non_negative_int",
            "port_zero",
            "port_max",
            "positive_float",
            "matcher",
        ],
    )
    def test_accepts_its_smallest_and_largest_values(self, convert, text, expected):
        assert convert(text) == expected

    @pytest.mark.parametrize(
        ("convert", "text"),
        [
            (positive_int, "0"),
            (non_negative_int, "-1"),
            (port_number, "-1"),
            (port_number, "65536"),
            (positive_float, "0"),
            (positive_float, "inf"),
            (positive_float, "nan"),
            (matcher_name, "Bogus"),
        ],
        ids=[
            "positive_int",
            "non_negative_int",
            "port_below",
            "port_above",
            "positive_float_zero",
            "positive_float_inf",
            "positive_float_nan",
            "matcher",
        ],
    )
    def test_rejects_one_past_the_edge(self, convert, text):
        with pytest.raises(argparse.ArgumentTypeError, match=re.escape(text)):
            convert(text)

def _walk(parser, prefix=()):
    """Yield ``(command path, parser)`` for *parser* and every subcommand."""
    yield " ".join(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, prefix + (name,))


def _surface(parser):
    """Per command: sorted ``(option strings, dest, repr(default))`` rows."""
    return {
        path: sorted(
            (tuple(sorted(action.option_strings)), action.dest, repr(action.default))
            for action in sub._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        )
        for path, sub in _walk(parser)
    }


_STORE = (("--store",), "store", "PosixPath('lake.sketches')")
_WORKERS = (("--workers",), "workers", "None")
_METHOD = (("--method",), "method", "'ComaSchema'")

#: Recorded from commit 3a2edeb (the last single-file ``cli.py``): no flag
#: may be added, removed, renamed or re-defaulted by a refactor.  Deleted on
#: purpose since: ``query --parallel``, ``serve --serial``, ``pull --no-resume``,
#: ``query --workers``, ``serve --workers``, ``prepare --max-store-mb``,
#: ``query --budget-ms``, ``--prepared-store`` on ``prepare``, ``publish``,
#: ``pull``, ``query``, ``serve``, ``stats``, ``verify`` and ``watch``,
#: ``query --no-prepared-store``, ``publish`` / ``pull --no-prepared``,
#: ``publish --iblt-cells`` / ``--no-prune``, ``pull --keep-missing`` and
#: ``query --cascade`` (``serve --cascade`` still parses and does nothing).
_PARSER_SURFACE = {
    "": [(("--verbose", "-v"), "verbose", "0")],
    "coverage": [],
    "fabricate": [
        (("--output",), "output", "PosixPath('fabricated_pairs')"),
        (("--rows",), "rows", "400"),
        (("--scenario",), "scenario", "None"),
        (("--source",), "source", "'tpcdi'"),
    ],
    "lake": [],
    "lake build": [((), "input", "None"), (("--prune",), "prune", "False"), _STORE, _WORKERS],
    "lake prepare": [((), "method", "None"), _STORE, _WORKERS],
    "lake publish": [
        ((), "out_dir", "None"),
        _STORE,
    ],
    "lake pull": [
        ((), "src", "None"),
        (("--retry-attempts",), "retry_attempts", "4"),
        (("--retry-budget",), "retry_budget", "64"),
        _STORE,
    ],
    "lake query": [
        ((), "query_csv", "None"),
        _METHOD,
        (("--mode",), "mode", "'joinable'"),
        (("--stats",), "stats", "False"),
        _STORE,
        (("--timeout-s",), "timeout_s", "None"),
        (("--top",), "top", "10"),
        (("--trace-json",), "trace_json", "None"),
    ],
    "lake serve": [
        (("--cascade",), "cascade", "False"),
        (("--host",), "host", "'127.0.0.1'"),
        _METHOD,
        (("--port",), "port", "8642"),
        (("--queue-limit",), "queue_limit", "32"),
        (("--reopen-poll-s",), "reopen_poll_s", "1.0"),
        _STORE,
        (("--timeout-s",), "timeout_s", "30.0"),
        (("--unix-socket",), "unix_socket", "None"),
    ],
    "lake stats": [_STORE],
    "lake verify": [
        (("--artifact",), "artifact", "None"),
        (("--repair",), "repair", "False"),
        _STORE,
    ],
    "lake watch": [
        ((), "input", "None"),
        (("--interval-s",), "interval_s", "2.0"),
        (("--max-polls",), "max_polls", "None"),
        (("--prepare",), "prepare", "None"),
        (("--publish",), "publish", "None"),
        _STORE,
        _WORKERS,
    ],
    "match": [
        ((), "source_csv", "None"),
        ((), "target_csv", "None"),
        _METHOD,
        (("--top",), "top", "20"),
    ],
    "parameters": [(("--fast",), "fast", "False")],
    "run": [
        (("--full-grid",), "full_grid", "False"),
        (("--methods",), "methods", "None"),
        (("--output",), "output", "None"),
        (("--rows",), "rows", "200"),
        (("--source",), "source", "'tpcdi'"),
    ],
}

#: A minimal valid argv per leaf command (positionals only).
_LEAF_ARGV = {
    "coverage": [],
    "parameters": [],
    "fabricate": [],
    "run": [],
    "match": ["a.csv", "b.csv"],
    "lake build": ["dir"],
    "lake prepare": ["ComaSchema"],
    "lake query": ["q.csv"],
    "lake stats": [],
    "lake serve": [],
    "lake publish": ["out"],
    "lake pull": ["src"],
    "lake verify": [],
    "lake watch": ["dir"],
}


class TestParserSurface:
    def test_no_flag_added_removed_or_redefaulted(self):
        assert _surface(build_parser()) == _PARSER_SURFACE

    def test_every_leaf_command_is_listed(self):
        leaves = {path for path, sub in _walk(build_parser()) if path not in ("", "lake")}
        assert leaves == set(_LEAF_ARGV)

    @pytest.mark.parametrize(
        "argv",
        [
            ["lake", "query", "q.csv", "--parallel"],
            ["lake", "serve", "--serial"],
            ["lake", "pull", "src", "--no-resume"],
            ["lake", "query", "q.csv", "--workers", "2"],
            ["lake", "serve", "--workers", "2"],
            ["lake", "prepare", "ComaSchema", "--max-store-mb", "1"],
            ["lake", "query", "q.csv", "--budget-ms", "5"],
            ["lake", "publish", "out", "--iblt-cells", "8"],
            ["lake", "publish", "out", "--no-prune"],
            ["lake", "pull", "src", "--keep-missing"],
            ["lake", "query", "q.csv", "--cascade"],
        ],
        ids=lambda argv: " ".join(argv[1:2] + [a for a in argv if a.startswith("--")]),
    )
    def test_deleted_executor_and_journal_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_cascade_parses_and_changes_nothing(self, monkeypatch, capsys):
        """A query is priced when its matcher can bound it, so ``lake serve
        --cascade`` has nothing left to switch: it is accepted, hidden from
        ``--help``, and the daemon gets the same config without it."""
        from repro.serve import server as serve_server

        configs = []

        def capture(self, config):
            configs.append(config)
            raise ValueError("stop before binding")

        monkeypatch.setattr(serve_server.DiscoveryServer, "__init__", capture)
        argv = ["lake", "serve", "--store", "lake.sketches"]
        assert main(argv) == 1
        assert main([*argv, "--cascade"]) == 1
        assert configs[0] == configs[1]
        with pytest.raises(SystemExit):
            main(["lake", "serve", "--help"])
        assert "--cascade" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag",
        [
            *(
                (command, "--prepared-store")
                for command in (
                    "prepare", "publish", "pull", "query", "serve", "stats", "verify", "watch"
                )
            ),
            ("query", "--no-prepared-store"),
            ("publish", "--no-prepared"),
            ("pull", "--no-prepared"),
        ],
        ids=lambda value: value,
    )
    def test_deleted_prepared_store_flags_are_usage_errors(self, command, flag, capsys):
        """A lake is named by ``--store`` alone: its prepared store is always
        ``<store>.prepared`` and cannot be named, nor switched off."""
        argv = ["lake", command, *_LEAF_ARGV[f"lake {command}"], flag]
        if flag == "--prepared-store":
            argv.append("elsewhere.prepared")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_LEAF_ARGV))
    def test_command_dispatches_to_a_handler_and_has_help(self, command, capsys):
        args = build_parser().parse_args(command.split() + _LEAF_ARGV[command])
        assert callable(args.func)
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestCommands:
    def test_coverage(self, capsys):
        assert main(["coverage"]) == 0
        output = capsys.readouterr().out
        assert "Cupid" in output

    def test_parameters_fast(self, capsys):
        assert main(["parameters", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "th_accept" in output

    @pytest.mark.parametrize("source", ["tpcdi", "opendata", "chembl"])
    def test_fabricate_writes_csv_files(self, source, tmp_path, capsys):
        exit_code = main(
            [
                "fabricate",
                "--source",
                source,
                "--rows",
                "40",
                "--scenario",
                "unionable",
                "--output",
                str(tmp_path / "pairs"),
            ]
        )
        assert exit_code == 0
        files = list((tmp_path / "pairs").glob("*.csv"))
        # 12 unionable pairs x 3 files each (source, target, ground truth)
        assert len(files) == 36
        assert any("ground_truth" in f.name for f in files)

    def test_match_command(self, tmp_path, capsys):
        source = Table("s", {"city": ["delft", "leiden"], "amount": [1, 2]})
        target = Table("t", {"town": ["delft", "gouda"], "value": [3, 4]})
        source_path = write_csv(source, tmp_path / "source.csv")
        target_path = write_csv(target, tmp_path / "target.csv")
        exit_code = main(
            ["match", str(source_path), str(target_path), "--method", "ComaSchema", "--top", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert len(output.strip().splitlines()) == 2

    def test_lake_build_and_query(self, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        write_csv(
            Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
            lake_dir / "towns.csv",
        )
        store = tmp_path / "lake.sketches"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert "2 tables sketched" in capsys.readouterr().out
        # Rebuilding over unchanged CSVs is all cache hits.
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert "2 unchanged" in capsys.readouterr().out

        query_path = write_csv(
            Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}),
            tmp_path / "query.csv",
        )
        exit_code = main(
            ["lake", "query", str(query_path), "--store", str(store), "--top", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "join=" in output and ("cities" in output or "towns" in output)

    def test_lake_build_workers_and_prepared_query(self, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        write_csv(
            Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
            lake_dir / "towns.csv",
        )
        store = tmp_path / "lake.sketches"
        assert (
            main(["lake", "build", str(lake_dir), "--store", str(store), "--workers", "2"])
            == 0
        )
        assert "2 tables sketched" in capsys.readouterr().out

        # Pre-warm the prepared store, then query it twice: the second query
        # must serve every candidate from the store.
        assert (
            main(
                [
                    "lake",
                    "prepare",
                    "JaccardLevenshtein",
                    "--store",
                    str(store),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 tables prepared" in out
        assert (store.parent / (store.name + ".prepared")).exists()

        query_path = write_csv(
            Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}),
            tmp_path / "query.csv",
        )
        assert (
            main(
                [
                    "lake",
                    "query",
                    str(query_path),
                    "--store",
                    str(store),
                    "--method",
                    "JaccardLevenshtein",
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        assert "2 served from the prepared store" in capsys.readouterr().out

    def test_query_leaves_the_lake_verifiable_and_publishable(self, tmp_path, capsys):
        """build → prepare → query → verify → publish → pull → verify: the
        query adds no prepared row, so both the publisher and a fresh
        replica verify clean and the snapshot carries one prepared payload
        per lake table.  At the parent the query's own row made both
        `lake verify` runs exit 1 ("stale prepared rows: 1")."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        write_csv(
            Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
            lake_dir / "towns.csv",
        )
        query_path = write_csv(
            Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}),
            tmp_path / "query.csv",
        )
        store, replica = tmp_path / "lake.sketches", tmp_path / "replica.sketches"
        artifact = tmp_path / "artifact"
        method = "JaccardLevenshtein"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert main(["lake", "prepare", method, "--store", str(store)]) == 0
        query = ["lake", "query", str(query_path), "--store", str(store), "--method", method]
        assert main(query) == 0
        capsys.readouterr()
        assert main(["lake", "verify", "--store", str(store)]) == 0
        assert "verify: clean" in capsys.readouterr().out
        assert main(["lake", "publish", str(artifact), "--store", str(store)]) == 0
        assert "2 tables, 2 prepared payloads" in capsys.readouterr().out
        assert main(["lake", "pull", str(artifact), "--store", str(replica)]) == 0
        capsys.readouterr()
        assert main(["lake", "verify", "--store", str(replica), "--artifact", str(artifact)]) == 0
        assert "verify: clean" in capsys.readouterr().out

    def test_a_pull_reads_the_manifest_once(self, tmp_path, capsys, monkeypatch):
        """`lake pull` parses the manifest to open the replica with its sketch
        config, then pulls with those same bytes: one manifest read per
        pull, and the config the replica was opened with is the one of the
        manifest it pulls."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        store, artifact = tmp_path / "lake.sketches", tmp_path / "artifact"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert main(["lake", "publish", str(artifact), "--store", str(store)]) == 0
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            if path.name == MANIFEST_NAME:
                reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        pull = ["lake", "pull", str(artifact), "--store", str(tmp_path / "replica.sketches")]
        assert main(pull) == 0
        assert len(reads) == 1
        assert main(pull) == 0  # already in sync: still one read
        assert len(reads) == 2
        assert "already in sync" in capsys.readouterr().out

    @pytest.mark.parametrize("with_artifact", [False, True], ids=["alone", "artifact"])
    def test_replica_verifies_clean_after_a_pull_without_prepared_payloads(
        self, tmp_path, capsys, with_artifact
    ):
        """build → prepare → publish → pull, then the publisher loses its
        prepared store and one CSV, and build --prune → publish → pull: the
        replica's prepared rows are reconciled against a snapshot that
        carries none, so they are retired and `lake verify` is clean (a pull
        that skipped them left "stale prepared rows: 1" behind)."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        doomed = write_csv(
            Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
            lake_dir / "towns.csv",
        )
        store, replica = tmp_path / "pub.sketches", tmp_path / "replica.sketches"
        artifact = tmp_path / "artifact"
        publish = ["lake", "publish", str(artifact), "--store", str(store)]
        pull = ["lake", "pull", str(artifact), "--store", str(replica)]
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert main(["lake", "prepare", "JaccardLevenshtein", "--store", str(store)]) == 0
        assert main(publish) == 0 and main(pull) == 0
        assert (tmp_path / "replica.sketches.prepared").exists()
        capsys.readouterr()

        for leftover in tmp_path.glob("pub.sketches.prepared*"):
            leftover.unlink()
        doomed.unlink()
        assert main(["lake", "build", str(lake_dir), "--store", str(store), "--prune"]) == 0
        assert main(publish) == 0
        assert "1 tables, 0 prepared payloads" in capsys.readouterr().out
        assert main(pull) == 0
        pulled = capsys.readouterr().out
        verify = ["lake", "verify", "--store", str(replica)]
        if with_artifact:
            verify += ["--artifact", str(artifact)]
        assert main(verify) == 0
        assert "verify: clean" in capsys.readouterr().out
        assert "+0/-1 tables, +0/-2 prepared" in pulled

    def test_prepare_after_a_query_has_nothing_to_do(self, tmp_path, capsys):
        """A second `lake prepare` after a query prepares nothing and prunes
        nothing: the lake's rows are exactly what the first one wrote."""
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden"], "pop": [1, 2]}),
            lake_dir / "cities.csv",
        )
        write_csv(
            Table("towns", {"town": ["delft", "gouda"], "size": [3, 4]}),
            lake_dir / "towns.csv",
        )
        query_path = write_csv(
            Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}),
            tmp_path / "query.csv",
        )
        store, method = tmp_path / "lake.sketches", "JaccardLevenshtein"
        prepare = ["lake", "prepare", method, "--store", str(store)]
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        assert main(prepare) == 0
        query = ["lake", "query", str(query_path), "--store", str(store), "--method", method]
        assert main(query) == 0
        capsys.readouterr()
        assert main(prepare) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(f"0 tables prepared with {method}, 2 already stored")

    def test_lake_prepare_requires_store(self, tmp_path, capsys):
        missing = tmp_path / "nope.sketches"
        assert main(["lake", "prepare", "JaccardLevenshtein", "--store", str(missing)]) == 1
        assert "run `lake build` first" in capsys.readouterr().err

    def test_lake_build_prune_drops_deleted_csvs(self, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(Table("keep", {"a": [1, 2, 3]}), lake_dir / "keep.csv")
        doomed = write_csv(Table("doomed", {"b": [4, 5, 6]}), lake_dir / "doomed.csv")
        store = tmp_path / "lake.sketches"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        capsys.readouterr()
        doomed.unlink()
        assert main(["lake", "build", str(lake_dir), "--store", str(store), "--prune"]) == 0
        assert "1 pruned" in capsys.readouterr().out

    def test_lake_build_skips_unreadable_csvs(self, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(Table("good", {"a": [1, 2, 3]}), lake_dir / "good.csv")
        (lake_dir / "bad.csv").write_bytes(b"\xff\xfe not utf8 \xff")
        store = tmp_path / "lake.sketches"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        captured = capsys.readouterr()
        assert "1 tables sketched" in captured.out
        assert "1 unreadable (skipped)" in captured.out
        assert "bad.csv" in captured.err

    def test_lake_store_refuses_foreign_sqlite_db(self, tmp_path, capsys):
        import sqlite3

        foreign = tmp_path / "app.db"
        with sqlite3.connect(foreign) as conn:
            conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(Table("t", {"a": [1]}), lake_dir / "t.csv")
        assert main(["lake", "build", str(lake_dir), "--store", str(foreign)]) == 1
        assert "not a sketch store" in capsys.readouterr().err
        with sqlite3.connect(foreign) as conn:
            tables = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )}
        assert tables == {"users"}  # untouched

    def test_lake_query_without_store_fails(self, tmp_path, capsys):
        query_path = write_csv(
            Table("query", {"a": [1, 2]}), tmp_path / "query.csv"
        )
        exit_code = main(
            ["lake", "query", str(query_path), "--store", str(tmp_path / "missing")]
        )
        assert exit_code == 1
        assert "lake build" in capsys.readouterr().err

    def test_run_command_small(self, capsys, tmp_path):
        exit_code = main(
            [
                "run",
                "--source",
                "tpcdi",
                "--rows",
                "30",
                "--methods",
                "ComaSchema",
                "--output",
                str(tmp_path / "results.json"),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "results.json").exists()
        output = capsys.readouterr().out
        assert "Recall@ground-truth" in output


class TestObservability:
    @staticmethod
    def _built_lake(tmp_path):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(
            Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
            lake_dir / "cities.csv",
        )
        write_csv(
            Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
            lake_dir / "towns.csv",
        )
        store = tmp_path / "lake.sketches"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        query_path = write_csv(
            Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}),
            tmp_path / "query.csv",
        )
        return store, query_path

    def test_query_timeout_s_generous_deadline_succeeds(self, tmp_path, capsys):
        store, query_path = self._built_lake(tmp_path)
        capsys.readouterr()
        exit_code = main(
            [
                "lake",
                "query",
                str(query_path),
                "--store",
                str(store),
                "--timeout-s",
                "120",
            ]
        )
        assert exit_code == 0
        assert "candidates reranked" in capsys.readouterr().out

    def test_query_timeout_s_expiry_exits_124(self, tmp_path, capsys):
        store, query_path = self._built_lake(tmp_path)
        capsys.readouterr()
        exit_code = main(
            [
                "lake",
                "query",
                str(query_path),
                "--store",
                str(store),
                "--timeout-s",
                "0.00001",
            ]
        )
        assert exit_code == 124
        assert "--timeout-s" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["lake", "serve", "--store", "x.sketches"])
        assert args.lake_command == "serve"
        assert args.queue_limit == 32
        assert args.timeout_s == 30.0
        assert args.unix_socket is None

    def test_serve_without_store_fails(self, tmp_path, capsys):
        exit_code = main(
            ["lake", "serve", "--store", str(tmp_path / "missing.sketches")]
        )
        assert exit_code == 1
        assert "run `lake build` first" in capsys.readouterr().err

    def test_query_stats_prints_summary(self, tmp_path, capsys):
        store, query_path = self._built_lake(tmp_path)
        capsys.readouterr()
        exit_code = main(
            ["lake", "query", str(query_path), "--store", str(store), "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "query stats:" in output
        assert "shortlist:" in output and "rerank:" in output
        assert "counters:" in output
        assert "lsh.bands_probed" in output
        assert "mode=joinable" in output

    def test_query_trace_json_is_valid_chrome_trace(self, tmp_path, capsys):
        import json

        store, query_path = self._built_lake(tmp_path)
        trace_path = tmp_path / "trace.json"
        exit_code = main(
            [
                "lake",
                "query",
                str(query_path),
                "--store",
                str(store),
                "--trace-json",
                str(trace_path),
            ]
        )
        assert exit_code == 0
        assert "trace written" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events, "query produced no trace spans"
        assert all(event["ph"] == "X" for event in events)
        assert any(event["name"] == "query.shortlist" for event in events)
        assert trace["otherData"]["counters"]

    def test_lake_stats_reports_both_stores(self, tmp_path, capsys):
        store, query_path = self._built_lake(tmp_path)
        # A cold query of an instance-based matcher writes its candidates
        # through to the default store.
        query = ["lake", "query", str(query_path), "--store", str(store)]
        assert main([*query, "--method", "JaccardLevenshtein"]) == 0
        capsys.readouterr()
        assert main(["lake", "stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "sketch store" in output
        assert "tables:" in output and "2" in output
        assert "columns:          4\n" in output  # 2 tables x 2 columns
        assert "prepared store" in output
        assert "matcher " in output  # per-fingerprint breakdown

    def test_lake_stats_names_each_matcher_and_reports_only_store_facts(
        self, tmp_path, capsys
    ):
        """A fixed-width fingerprint prefix printed ``repro.matche…`` for every
        matcher, and the reading handle's default caps read as store facts."""
        store, _ = self._built_lake(tmp_path)
        for method in ("SemProp", "JaccardLevenshtein"):
            assert main(["lake", "prepare", method, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["lake", "stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        names = [
            line.split()[1].rstrip(":")
            for line in output.splitlines()
            if line.startswith("  matcher ")
        ]
        assert names == [
            "repro.matchers.jaccard_levenshtein.JaccardLevenshteinMatcher",
            "repro.matchers.semprop.matcher.SemPropMatcher",
        ]
        assert "entry cap" not in output and "byte budget" not in output

    def test_lake_stats_without_prepared_store(self, tmp_path, capsys):
        store, _ = self._built_lake(tmp_path)
        capsys.readouterr()
        assert main(["lake", "stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "no prepared store" in output

    def test_lake_stats_requires_store(self, tmp_path, capsys):
        assert main(["lake", "stats", "--store", str(tmp_path / "missing")]) == 1
        assert "run `lake build` first" in capsys.readouterr().err

    def test_verbose_flag_enables_debug_logging(self, tmp_path, capsys):
        import logging

        store, query_path = self._built_lake(tmp_path)
        capsys.readouterr()
        try:
            assert (
                main(["-v", "lake", "query", str(query_path), "--store", str(store)])
                == 0
            )
            assert logging.getLogger("repro.lake").level == logging.DEBUG
            assert logging.getLogger("repro.discovery").level == logging.DEBUG
        finally:
            # Undo the CLI's handler/level wiring so other tests stay quiet.
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
            logging.getLogger("repro.lake").setLevel(logging.NOTSET)
            logging.getLogger("repro.discovery").setLevel(logging.NOTSET)


class TestBadInput:
    """Operational errors are one stderr line and exit 1; usage errors exit 2.
    Neither leaves a traceback or a stray file behind."""

    @staticmethod
    def _built_store(tmp_path):
        lake_dir = tmp_path / "lake"
        lake_dir.mkdir()
        write_csv(Table("cities", {"city": ["delft", "gouda"]}), lake_dir / "cities.csv")
        store_dir = tmp_path / "stores"
        store_dir.mkdir()
        store = store_dir / "lake.sketches"
        assert main(["lake", "build", str(lake_dir), "--store", str(store)]) == 0
        query_path = write_csv(Table("query", {"place": ["delft"]}), tmp_path / "query.csv")
        return lake_dir, store, query_path

    @pytest.mark.parametrize(
        "command",
        [
            ["match", "{query}", "{query}", "--method", "Bogus"],
            ["lake", "query", "{query}", "--store", "{store}", "--method", "Bogus"],
            ["lake", "prepare", "Bogus", "--store", "{store}"],
            ["lake", "serve", "--store", "{store}", "--method", "Bogus"],
            ["lake", "watch", "{lake}", "--store", "{store}", "--prepare", "Bogus"],
        ],
        ids=["match", "query", "prepare", "serve", "watch"],
    )
    def test_unknown_matcher_is_a_usage_error_before_anything_opens(
        self, command, tmp_path, capsys
    ):
        lake_dir, store, query_path = self._built_store(tmp_path)
        before = sorted(store.parent.iterdir())
        capsys.readouterr()
        argv = [
            part.format(query=query_path, store=store, lake=lake_dir) for part in command
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown matcher 'Bogus'" in err and "known matchers:" in err
        assert "Traceback" not in err
        # In particular no empty <store>.prepared appears next to the store.
        assert sorted(store.parent.iterdir()) == before

    @pytest.mark.parametrize("where", ["busy port", "socket directory missing"])
    def test_serve_that_cannot_bind_is_one_line_and_leaves_nothing_running(
        self, where, tmp_path, capsys
    ):
        """At the parent: an OSError traceback (only ValueError was caught)."""
        _, store, _ = self._built_store(tmp_path)
        capsys.readouterr()
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            if where == "busy port":
                target = ["--port", str(holder.getsockname()[1])]
            else:
                target = ["--unix-socket", str(tmp_path / "no" / "such" / "dir.sock")]
            assert main(["lake", "serve", "--store", str(store)] + target) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot listen on ") and target[-1] in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "serve-dispatcher" not in {t.name for t in threading.enumerate()}

    def test_lake_query_unreadable_csv_is_one_line_and_opens_nothing(self, tmp_path, capsys):
        _, store, _ = self._built_store(tmp_path)
        before = sorted(store.parent.iterdir())
        capsys.readouterr()
        missing = tmp_path / "nope.csv"
        assert main(["lake", "query", str(missing), "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(missing) in captured.err
        assert sorted(store.parent.iterdir()) == before

    def test_lake_query_undecodable_csv_is_one_line(self, tmp_path, capsys):
        _, store, _ = self._built_store(tmp_path)
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe not utf8 \xff")
        assert main(["lake", "query", str(bad), "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot read {bad}" in err

    def test_match_unreadable_csv_is_one_line(self, tmp_path, capsys):
        good = write_csv(Table("t", {"a": [1]}), tmp_path / "t.csv")
        missing = tmp_path / "nope.csv"
        for argv in (["match", str(missing), str(good)], ["match", str(good), str(missing)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and f"cannot read {missing}" in captured.err

    def test_lake_query_closes_its_stores_when_the_query_raises(
        self, tmp_path, capsys, monkeypatch
    ):
        """Regression: an exception mid-query used to leak the prepared store."""
        from repro.discovery.prepared import PreparedStore
        from repro.lake.engine import LakeDiscoveryEngine

        _, store, query_path = self._built_store(tmp_path)
        opened = []
        real_init = PreparedStore.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            opened.append(self)

        def exploding_query(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(PreparedStore, "__init__", recording_init)
        monkeypatch.setattr(LakeDiscoveryEngine, "query", exploding_query)
        with pytest.raises(RuntimeError, match="boom"):
            main(["lake", "query", str(query_path), "--store", str(store), "--method", "SemProp"])
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError):
            len(opened[0])

    @pytest.mark.parametrize("method", ["Cupid", "SimilarityFlooding", "ComaSchema"])
    def test_schema_based_query_opens_no_prepared_store(self, method, tmp_path, capsys):
        """A schema-based matcher scores the sketches: its query neither
        creates ``<store>.prepared`` nor reports rows served from it."""
        _, store, query_path = self._built_store(tmp_path)
        capsys.readouterr()
        argv = ["lake", "query", str(query_path), "--store", str(store), "--method", method]
        assert main(argv) == 0
        assert "served from the prepared store" not in capsys.readouterr().out
        assert not store.with_name(store.name + ".prepared").exists()

    @pytest.mark.parametrize(
        "suffix, old, command, fix",
        [
            ("", 3, ["lake", "build", "{lake}"], "re-run `lake build` on its CSV directory"),
            (".prepared", 2, ["lake", "prepare", "JaccardLevenshtein"], "`lake prepare <matcher>`"),
        ],
        ids=["sketch store", "prepared store"],
    )
    def test_old_schema_refusal_names_the_file_and_the_fix(
        self, suffix, old, command, fix, tmp_path, capsys
    ):
        """A store one schema version behind (no row digests) is refused
        with the command that recreates it."""
        lake_dir, store, _ = self._built_store(tmp_path)
        assert main(["lake", "prepare", "JaccardLevenshtein", "--store", str(store)]) == 0
        target = store.with_name(store.name + suffix)
        with sqlite3.connect(target) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'", (str(old),)
            )
        connection.close()
        capsys.readouterr()
        argv = [part.format(lake=lake_dir) for part in command] + ["--store", str(store)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"schema version {old}," in err and f"delete {target} " in err and fix in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_lake_stats_opens_both_stores_read_only(self, tmp_path, capsys):
        """A read-write open converts a legacy rollback-journal store to WAL;
        `lake stats` must leave the files exactly as it found them."""
        _, store, query_path = self._built_store(tmp_path)
        argv = ["lake", "query", str(query_path), "--store", str(store), "--method", "SemProp"]
        assert main(argv) == 0
        prepared = store.with_name(store.name + ".prepared")
        for path in (store, prepared):
            with sqlite3.connect(path) as connection:
                assert connection.execute("PRAGMA journal_mode = DELETE").fetchone() == ("delete",)
        capsys.readouterr()
        assert main(["lake", "stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "sketch store" in output and "prepared store" in output
        for path in (store, prepared):
            with sqlite3.connect(path) as connection:
                assert connection.execute("PRAGMA journal_mode").fetchone() == ("delete",)

    @pytest.mark.parametrize(
        "command",
        [
            ["lake", "query", "{query}", "--store", "{store}", "--top", "0"],
            ["lake", "query", "{query}", "--store", "{store}", "--top", "-1"],
            ["lake", "query", "{query}", "--store", "{store}", "--timeout-s", "0"],
            ["lake", "query", "{query}", "--store", "{store}", "--timeout-s", "nan"],
            ["lake", "serve", "--store", "{store}", "--queue-limit", "0"],
            ["lake", "serve", "--store", "{store}", "--timeout-s", "-1"],
            ["lake", "serve", "--store", "{store}", "--reopen-poll-s", "0"],
            ["lake", "serve", "--store", "{store}", "--port", "99999"],
            ["lake", "serve", "--store", "{store}", "--port", "-5"],
            ["lake", "pull", "{lake}", "--store", "{fresh}", "--retry-attempts", "0"],
            ["lake", "pull", "{lake}", "--store", "{fresh}", "--retry-budget", "-1"],
            ["lake", "build", "{lake}", "--store", "{fresh}", "--workers", "0"],
            ["lake", "prepare", "ComaSchema", "--store", "{store}", "--workers", "0"],
            ["lake", "watch", "{lake}", "--store", "{fresh}", "--workers", "0"],
            ["lake", "watch", "{lake}", "--store", "{fresh}", "--interval-s", "0"],
            ["lake", "watch", "{lake}", "--store", "{fresh}", "--interval-s", "nan"],
            ["lake", "watch", "{lake}", "--store", "{fresh}", "--max-polls", "0"],
        ],
        ids=lambda command: " ".join(command[1:2] + command[-2:]),
    )
    def test_non_positive_number_is_a_usage_error_before_anything_opens(
        self, command, tmp_path, capsys
    ):
        """At the parent these were an IndexError (--top), a ValueError from
        the executor (--workers), a misleading timeout (--timeout-s), an OverflowError from bind() (--port), a
        ValueError after an empty store was created (pull --retry-attempts 0)
        or a watch loop that never sleeps (--interval-s 0)."""
        lake_dir, store, query_path = self._built_store(tmp_path)
        before = sorted(store.parent.iterdir())
        capsys.readouterr()
        argv = [
            part.format(
                query=query_path,
                store=store,
                lake=lake_dir,
                fresh=store.with_name("fresh.sketches"),
            )
            for part in command
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {command[-2]}" in err and "is not a " in err
        assert "Traceback" not in err
        # Nothing was opened or created: no fresh store, no <store>.prepared.
        assert sorted(store.parent.iterdir()) == before
