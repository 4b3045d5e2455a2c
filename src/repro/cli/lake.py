"""Store-maintenance and one-shot query commands: ``lake build | prepare | query | stats``."""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.cli.options import (
    add_method_option,
    add_store_options,
    add_workers_option,
    fail,
    positive_float,
    positive_int,
)
from repro.data.csv_io import UNREADABLE_CSV, read_csv
from repro.lake import (
    LakeDiscoveryEngine,
    build_from_paths,
    open_lake,
    prepare_lake,
    resolve_prepared_path,
)
from repro.matchers.registry import create_matcher


def register(lake_commands: argparse._SubParsersAction) -> None:
    build = lake_commands.add_parser("build", help="(re)build the sketch store from CSVs")
    build.add_argument("input", type=Path, help="directory of CSV files (one table each)")
    add_store_options(build, prepared_help=None)
    build.add_argument(
        "--prune", action="store_true",
        help="also drop store tables whose CSV is no longer in the input directory",
    )
    add_workers_option(
        build,
        "read + sketch CSVs in a process pool of this size "
        "(the store is still written by this process only)",
    )
    build.set_defaults(func=_command_lake_build)

    prepare = lake_commands.add_parser(
        "prepare", help="pre-warm the prepared-candidate store for one matcher"
    )
    add_method_option(prepare, "method", help="registered matcher name to prepare for")
    add_store_options(prepare)
    add_workers_option(prepare, "prepare tables in a process pool of this size")
    prepare.add_argument(
        "--max-store-mb", type=positive_float, default=None,
        help="byte budget for the prepared store in MiB: least-recently-used "
        "payloads are evicted until the total fits (entry-count cap still "
        "applies as a secondary bound)",
    )
    prepare.set_defaults(func=_command_lake_prepare)

    query = lake_commands.add_parser("query", help="discover related tables for a CSV")
    query.add_argument("query_csv", type=Path)
    add_store_options(
        query,
        "prepared-candidate store path (default: <store>.prepared); "
        "warm candidates skip CSV loading and preparation entirely",
    )
    query.add_argument("--mode", choices=["joinable", "unionable", "combined"], default="joinable")
    add_method_option(query)
    query.add_argument("--top", type=positive_int, default=10, help="number of tables to report")
    query.add_argument(
        "--no-prepared-store", action="store_true",
        help="disable the prepared-candidate store (the PR 3 cold path)",
    )
    query.add_argument(
        "--timeout-s", type=positive_float, default=None, metavar="SECONDS",
        help="per-query deadline (the same one `lake serve` enforces per "
        "request); an expired query exits with status 124",
    )
    query.add_argument(
        "--cascade", action="store_true",
        help="two-stage rerank: score cheap sketch-level bounds first and "
        "skip candidates that provably cannot reach the top-k (exact "
        "rankings; skipping only when the matcher declares its bounds "
        "admissible)",
    )
    query.add_argument(
        "--budget-ms", type=positive_float, default=None, metavar="MS",
        help="anytime rerank budget in milliseconds: stop scoring at the "
        "deadline and report the best-effort top-k (flagged partial)",
    )
    query.add_argument(
        "--stats", action="store_true",
        help="print per-stage latencies (p50/p95/p99) and pipeline counters for this query",
    )
    query.add_argument(
        "--trace-json", type=Path, default=None, metavar="PATH",
        help="write the query's spans as a Chrome trace-event JSON file "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    query.set_defaults(func=_command_lake_query)

    stats = lake_commands.add_parser(
        "stats", help="print store-level statistics (row counts, bytes, hit rates)"
    )
    add_store_options(stats)
    stats.set_defaults(func=_command_lake_stats)


def _command_lake_build(args: argparse.Namespace) -> int:
    csv_paths = sorted(args.input.glob("*.csv"))
    if not csv_paths:
        return fail(f"no CSV files found in {args.input}")
    with open_lake(args.store, create=True) as (store, _):
        report = build_from_paths(
            store,
            csv_paths,
            workers=args.workers,
            on_unreadable=lambda message: print(message, file=sys.stderr),
            remove_missing=args.prune,
        )
    suffix = f", {len(report.removed)} pruned" if args.prune else ""
    if report.unreadable:
        suffix += f", {len(report.unreadable)} unreadable (skipped)"
    if args.workers and args.workers > 1:
        suffix += f" [{args.workers} workers]"
    print(
        f"store {args.store}: {report.sketched} tables sketched, "
        f"{report.unchanged} unchanged (cache hits){suffix}"
    )
    return 0


def _command_lake_prepare(args: argparse.Namespace) -> int:
    max_mb = args.max_store_mb
    max_bytes = None if max_mb is None else max(1, int(max_mb * 1024 * 1024))
    with open_lake(
        args.store, args.prepared_store, prepared="create", max_bytes=max_bytes
    ) as (store, prepared_store):
        report = prepare_lake(
            store, prepared_store, create_matcher(args.method), workers=args.workers
        )
    suffix = "" if max_bytes is None else f", byte budget {max_mb:g} MiB"
    if report.stale_pruned:
        suffix += f", {report.stale_pruned} stale payloads pruned"
    if report.missing:
        suffix += f", {len(report.missing)} missing source CSVs (skipped)"
    if report.stale:
        suffix += (
            f", {len(report.stale)} changed since build "
            "(stored under current content; re-run `lake build`)"
        )
    print(
        f"prepared store {prepared_store.path}: {report.prepared} tables prepared "
        f"with {args.method}, {report.already_stored} already stored{suffix}"
    )
    return 0


def _command_lake_query(args: argparse.Namespace) -> int:
    from repro.serve.admission import DeadlineExpired, run_with_deadline

    # The whole query (store opens included) runs under the deadline in a
    # worker thread: SQLite connections are thread-bound, so the thread
    # that opens the stores must be the one that queries and closes them.
    try:
        return run_with_deadline(lambda: _run_lake_query(args), args.timeout_s)
    except DeadlineExpired as exc:
        print(str(exc), file=sys.stderr)
        return 124


def _run_lake_query(args: argparse.Namespace) -> int:
    from repro.telemetry import TelemetryRecorder, use, write_chrome_trace

    try:
        query = read_csv(args.query_csv)
    except UNREADABLE_CSV as exc:
        return fail(f"cannot read {args.query_csv}: {exc}")
    # --stats / --trace-json need counters and spans: activate a real
    # recorder for the query.  Without them the default no-op recorder
    # stays in place and instrumentation costs ~nothing.
    traced = args.stats or args.trace_json is not None
    # The prepared store is write-through: the first (cold) query warms it,
    # later queries with the same matcher config rerank without preparing.
    with open_lake(
        args.store,
        args.prepared_store,
        prepared=None if args.no_prepared_store else "create",
        warn=lambda exc: print(
            f"prepared store unavailable, querying cold: {exc}", file=sys.stderr
        ),
    ) as (store, prepared_store):
        with LakeDiscoveryEngine(
            matcher=create_matcher(args.method), store=store, prepared_store=prepared_store
        ) as engine, (use(TelemetryRecorder()) if traced else nullcontext()):
            results = engine.query(
                query,
                mode=args.mode,
                top_k=args.top,
                cascade=args.cascade,
                budget_ms=args.budget_ms,
            )
        stats = engine.last_query_stats
        warm_note = ""
        if prepared_store is not None:
            warm_note = f", {stats.store_hits} served from the prepared store"
        cascade_note = ""
        if args.cascade:
            cascade_note = f", {stats.cascade_skipped} skipped by cascade bound"
        print(
            f"query {query.name!r} against {len(store)} tables "
            f"({stats.rerank_count} candidates reranked with {args.method}"
            f"{warm_note}{cascade_note})"
        )
    if stats.partial:
        print(
            f"note: budget of {args.budget_ms:g} ms expired before all "
            "candidates were scored — ranking is partial (best-effort)",
            file=sys.stderr,
        )
    for result in results:
        best = result.scores.best_pair
        best_text = f"  via {best[0]} ~ {best[1]}" if best else ""
        print(
            f"join={result.joinability:.3f} union={result.unionability:.3f}  "
            f"{result.table_name}{best_text}"
        )
    if args.stats:
        print()
        print(stats.format_summary())
    if args.trace_json is not None and stats.snapshot is not None:
        write_chrome_trace(stats.snapshot, args.trace_json)
        print(f"trace written to {args.trace_json} (open in chrome://tracing or Perfetto)")
    return 0


def _command_lake_stats(args: argparse.Namespace) -> int:
    with open_lake(
        args.store, args.prepared_store, read_only=True, prepared="if_present"
    ) as (store, prepared_store):
        sketch_stats = store.stats()
        prepared_stats = None if prepared_store is None else prepared_store.stats()
    print(f"sketch store {args.store} ({args.store.stat().st_size / 1024:.1f} KiB)")
    print(f"  tables:           {sketch_stats['tables']}")
    print(f"  columns:          {sketch_stats['columns']}")
    print(f"  total table rows: {sketch_stats['total_table_rows']}")
    print(f"  store version:    {sketch_stats['version']}")
    prepared_path = resolve_prepared_path(args.store, args.prepared_store)
    if prepared_stats is None:
        print(f"no prepared store at {prepared_path}")
        return 0
    print(f"prepared store {prepared_path} ({prepared_path.stat().st_size / 1024:.1f} KiB)")
    print(f"  rows:             {prepared_stats['rows']}")
    print(f"  payload bytes:    {prepared_stats['total_payload_bytes']}")
    print(f"  entry cap:        {prepared_stats['max_entries']}")
    budget = prepared_stats["max_bytes"]
    print(f"  byte budget:      {budget if budget is not None else 'none'}")
    for fingerprint, per in sorted(prepared_stats["per_fingerprint"].items()):
        print(
            f"  matcher {fingerprint[:12]}…: {per['rows']} rows, "
            f"{per['payload_bytes']} payload bytes"
        )
    return 0

