"""The settable surface of the lake: every parameter, field and flag, pinned.

Each independently settable value doubles the configurations that tests
and benchmarks must cover, so the rule here is: **a knob enters only with
a second non-test value in use** — a caller under ``src/``, ``benchmarks/``
or ``examples/`` that sets it to something other than its default.  With
one value in use it is a constant.  A new parameter, field or ``lake``
option therefore fails this file until the pin below is edited in the same
change, which is where that second value has to be named.

``tests/test_cli.py::TestParserSurface`` additionally pins each flag's
destination and default for every command.
"""

from __future__ import annotations

import argparse
import inspect

import pytest

from repro.artifacts import LakeWatcher, RetryPolicy, publish_snapshot, pull_snapshot
from repro.cli import build_parser
from repro.discovery.prepared import PreparedStore, PreparedTableCache
from repro.discovery.search import DiscoveryEngine
from repro.lake import LakeDiscoveryEngine
from repro.lake.index import LakeIndex
from repro.lake.verify import verify_lake
from repro.serve import ServeConfig
from repro.telemetry import TelemetryRecorder

#: Entry point -> the names its signature (a dataclass's: its init fields)
#: accepts, in order.
_PARAMETERS = {
    "publish_snapshot": (publish_snapshot, ("store", "artifact_dir", "prepared_store")),
    "pull_snapshot": (
        pull_snapshot,
        ("source", "store", "prepared_store", "remove_missing", "retry"),
    ),
    "verify_lake": (verify_lake, ("store", "prepared_store", "source", "repair")),
    "LakeDiscoveryEngine": (
        LakeDiscoveryEngine,
        ("matcher", "store", "min_candidates", "prepared_store"),
    ),
    "LakeDiscoveryEngine.query": (
        LakeDiscoveryEngine.query,
        ("self", "query", "mode", "top_k"),
    ),
    "DiscoveryEngine": (DiscoveryEngine, ("matcher",)),
    "LakeWatcher": (
        LakeWatcher,
        ("store", "data_dir", "prepared_store", "matcher", "publish_dir", "workers"),
    ),
    "LakeIndex.from_store": (LakeIndex.from_store, ("store",)),
    "LakeIndex.candidate_tables": (
        LakeIndex.candidate_tables,
        ("self", "query", "top_k"),
    ),
    "PreparedTableCache": (PreparedTableCache, ()),
    "PreparedTableCache.prepare": (PreparedTableCache.prepare, ("self", "matcher", "table")),
    "PreparedStore.prepare": (PreparedStore.prepare, ("self", "matcher", "table")),
    "PreparedStore.put": (PreparedStore.put, ("self", "prepared", "content_hash")),
    "TelemetryRecorder": (TelemetryRecorder, ()),
    "RetryPolicy": (
        RetryPolicy,
        ("max_attempts", "base_delay_s", "max_delay_s", "budget", "sleep", "seed"),
    ),
    "ServeConfig": (
        ServeConfig,
        (
            "store_path",
            "method",
            "method_kwargs",
            "host",
            "port",
            "unix_socket",
            "queue_limit",
            "default_timeout_s",
            "reopen_poll_s",
            "fault_plan",
        ),
    ),
}

#: ``lake`` subcommand -> its option strings, positionals by name.
_LAKE_OPTIONS = {
    "build": ("input", "--prune", "--store", "--workers"),
    "prepare": ("method", "--store", "--workers"),
    "publish": ("out_dir", "--store"),
    "pull": ("src", "--retry-attempts", "--retry-budget", "--store"),
    "query": (
        "query_csv",
        "--method",
        "--mode",
        "--stats",
        "--store",
        "--timeout-s",
        "--top",
        "--trace-json",
    ),
    "serve": (
        "--cascade",
        "--host",
        "--method",
        "--port",
        "--queue-limit",
        "--reopen-poll-s",
        "--store",
        "--timeout-s",
        "--unix-socket",
    ),
    "stats": ("--store",),
    "verify": ("--artifact", "--repair", "--store"),
    "watch": (
        "input",
        "--interval-s",
        "--max-polls",
        "--prepare",
        "--publish",
        "--store",
        "--workers",
    ),
}


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _option_strings(parser: argparse.ArgumentParser) -> tuple[str, ...]:
    positionals, options = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            options.extend(action.option_strings)
        else:
            positionals.append(action.dest)
    return (*positionals, *sorted(options))


@pytest.mark.parametrize("entry_point", sorted(_PARAMETERS))
def test_entry_point_parameters_are_pinned(entry_point):
    target, expected = _PARAMETERS[entry_point]
    assert tuple(inspect.signature(target).parameters) == expected


@pytest.mark.parametrize("command", sorted(_LAKE_OPTIONS))
def test_lake_command_options_are_pinned(command):
    lake = _subcommands(build_parser())["lake"]
    assert _option_strings(_subcommands(lake)[command]) == _LAKE_OPTIONS[command]


def test_every_lake_command_is_pinned():
    assert set(_subcommands(_subcommands(build_parser())["lake"])) == set(_LAKE_OPTIONS)
