"""Command-line interface of the Valentine reproduction.

One parser, one dispatch table: each command group is a module that
registers its subcommands (parser plus ``set_defaults(func=handler)``), and
:func:`main` is ``args.func(args)``.

* :mod:`.experiments` — ``coverage`` (Table I), ``parameters`` (Table II),
  ``fabricate``, ``run`` (Figure 4–6 summaries), ``match`` (two CSV files);
* :mod:`.lake` — ``lake build | prepare | query | stats``: the persistent
  sketch store, the prepared-candidate store next to it, indexed discovery;
* :mod:`.serve` — ``lake serve``: the long-lived discovery daemon
  (``/query`` ``/stats`` ``/healthz`` over HTTP, TCP or a unix socket);
* :mod:`.sync` — ``lake publish | pull | verify | watch``: content-addressed
  snapshots, delta sync, repair, incremental ingest;
* :mod:`.options` — the options commands share (``--store``, ``--method``,
  ``--workers``), each declared once.

A lake is named by ``--store`` alone (its prepared store is always
``<store>.prepared``), and every ``lake`` command opens both stores through
:func:`repro.lake.open_lake`, which also closes them afterwards.

Exit codes, for every command:

====  =====================================================================
0     success
1     operational error, one line on stderr: a store that is missing,
      foreign or built with another config (:class:`repro.lake.LakeOpenError`),
      an unreadable input CSV or artifact, ``lake verify`` findings,
      ``lake pull`` skipping corrupt blobs
2     usage error (argparse), including an unregistered matcher name
124   ``lake query --timeout-s`` deadline expired
====  =====================================================================

Observability: ``-v`` turns on logging for the lake and discovery paths
(``-vv`` for everything); ``lake query --stats`` prints per-stage latencies
and counters, ``lake query --trace-json PATH`` writes a Chrome trace file.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.cli import experiments, lake, serve, sync
from repro.cli.options import fail
from repro.lake import LakeOpenError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``valentine-repro`` entry point."""
    parser = argparse.ArgumentParser(
        prog="valentine-repro",
        description="Valentine reproduction: schema matching experiments for dataset discovery",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable logging: -v for DEBUG on the lake/discovery paths, "
        "-vv for DEBUG everywhere",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    experiments.register(subparsers)
    lake_parser = subparsers.add_parser("lake", help="persistent sketch store + LSH discovery")
    lake_commands = lake_parser.add_subparsers(dest="lake_command", required=True)
    lake.register(lake_commands)
    serve.register(lake_commands)
    sync.register(lake_commands)
    return parser


def _configure_logging(verbose: int) -> None:
    """Wire stderr logging for the ``repro`` hierarchy per ``-v`` count.

    The library itself only attaches a ``NullHandler``; this is the CLI's
    opt-in.  One ``-v`` debugs the discovery pipeline (``repro.lake``,
    ``repro.discovery``) and keeps the rest at INFO; ``-vv`` debugs the
    whole ``repro.*`` tree.
    """
    if verbose <= 0:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    if verbose == 1:
        root.setLevel(logging.INFO)
        for name in ("repro.lake", "repro.discovery", "repro.artifacts"):
            logging.getLogger(name).setLevel(logging.DEBUG)
    else:
        root.setLevel(logging.DEBUG)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except LakeOpenError as exc:
        return fail(exc)
