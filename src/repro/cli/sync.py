"""Distribution and upkeep commands: ``lake publish | pull | verify | watch``."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.options import (
    add_method_option,
    add_store_option,
    add_workers_option,
    fail,
    non_negative_int,
    positive_float,
    positive_int,
)
from repro.lake import open_lake
from repro.matchers.registry import create_matcher


def register(lake_commands: argparse._SubParsersAction) -> None:
    publish = lake_commands.add_parser(
        "publish", help="export the stores as a content-addressed snapshot artifact"
    )
    publish.add_argument(
        "out_dir", type=Path, help="artifact directory (created or updated in place)"
    )
    add_store_option(publish)
    publish.set_defaults(func=_command_lake_publish)

    pull = lake_commands.add_parser(
        "pull", help="sync local stores to a published snapshot, fetching only the delta"
    )
    pull.add_argument("src", type=Path, help="artifact directory to pull from")
    add_store_option(pull)
    pull.add_argument(
        "--retry-attempts", type=positive_int, default=4, metavar="N",
        help="max transport attempts per blob before skipping it (default: 4)",
    )
    pull.add_argument(
        "--retry-budget", type=non_negative_int, default=64, metavar="N",
        help="total retries one pull may spend across all blobs (default: 64)",
    )
    pull.set_defaults(func=_command_lake_pull)

    verify = lake_commands.add_parser(
        "verify", help="cross-check manifest <-> blobs <-> stores and optionally repair"
    )
    add_store_option(verify)
    verify.add_argument(
        "--artifact", type=Path, default=None, metavar="DIR",
        help="snapshot artifact to cross-check against (and repair from)",
    )
    verify.add_argument(
        "--repair", action="store_true",
        help="fix findings: re-sketch from recorded CSVs, prune stale prepared "
        "rows, re-pull missing entries from --artifact",
    )
    verify.set_defaults(func=_command_lake_verify)

    watch = lake_commands.add_parser(
        "watch", help="poll a CSV directory and ingest changes into the store incrementally"
    )
    watch.add_argument("input", type=Path, help="directory of CSV files (one table each)")
    add_store_option(watch)
    watch.add_argument(
        "--interval-s", type=positive_float, default=2.0, metavar="SECONDS",
        help="poll interval; idle polls cost one stat() per file",
    )
    watch.add_argument(
        "--max-polls", type=positive_int, default=None,
        help="stop after this many polls (default: run until interrupted)",
    )
    add_method_option(
        watch, "--prepare", metavar="METHOD", default=None,
        help="also keep the prepared store warm for this matcher after every "
        "mutating poll (stale payloads are pruned)",
    )
    watch.add_argument(
        "--publish", type=Path, default=None, metavar="DIR",
        help="re-publish a snapshot artifact there after every mutating poll "
        "(O(delta) thanks to content addressing)",
    )
    add_workers_option(watch, "process-pool size for re-sketching and re-preparing")
    watch.set_defaults(func=_command_lake_watch)


def _command_lake_publish(args: argparse.Namespace) -> int:
    from repro.artifacts import publish_snapshot

    with open_lake(args.store, prepared="if_present") as (store, prepared_store):
        report = publish_snapshot(store, args.out_dir, prepared_store=prepared_store)
    print(
        f"published {args.out_dir}: snapshot {report.snapshot_id[:12]}, "
        f"{report.tables} tables, {report.prepared} prepared payloads; "
        f"{report.blobs_written} blobs written ({report.bytes_written} bytes), "
        f"{report.blobs_reused} reused, {report.blobs_pruned} pruned"
    )
    return 0


def _command_lake_pull(args: argparse.Namespace) -> int:
    from repro.artifacts import LocalTransport, Manifest, RetryPolicy, pull_snapshot
    from repro.artifacts.transport import PinnedTransport

    try:
        raw = LocalTransport(args.src).read_manifest()
        manifest = Manifest.from_bytes(raw, origin=str(args.src))
    except (OSError, ValueError) as exc:
        return fail(exc)
    # A bootstrap pull creates the local store with the snapshot's sketch
    # config; an existing store with a different config refuses.  A local
    # prepared store is reconciled even when the snapshot carries no
    # payloads, so rows the publisher no longer has are retired.
    with open_lake(
        args.store,
        create=True,
        config=manifest.sketch_config,
        prepared="create" if manifest.prepared else "if_present",
    ) as (store, prepared_store):
        report = pull_snapshot(
            PinnedTransport(args.src, raw),  # the manifest parsed above
            store,
            prepared_store=prepared_store,
            retry=RetryPolicy(max_attempts=args.retry_attempts, budget=args.retry_budget),
        )
    if report.unchanged:
        delta = "already in sync"
    else:
        delta = (
            f"+{report.tables_added}/-{report.tables_removed} tables, "
            f"+{report.prepared_added}/-{report.prepared_removed} prepared"
        )
    print(
        f"pulled {args.src} -> {args.store}: {delta}; "
        f"{report.blobs_fetched} blobs fetched ({report.bytes_fetched} bytes), "
        f"{report.blobs_skipped} already local"
    )
    if report.retries:
        print(f"  transport retries: {report.retries}")
    if report.corrupt:
        return fail(
            f"warning: skipped {len(report.corrupt)} entries with corrupt blobs "
            "(re-run `lake pull` to retry just those)"
        )
    return 0


def _command_lake_verify(args: argparse.Namespace) -> int:
    from repro.lake.verify import verify_lake

    with open_lake(args.store, prepared="if_present") as (store, prepared_store):
        try:
            report = verify_lake(
                store,
                prepared_store=prepared_store,
                source=args.artifact,
                repair=args.repair,
            )
        except (FileNotFoundError, ValueError) as exc:
            return fail(exc)
    for label, findings in sorted(report.sqlite_findings.items()):
        print(f"{label}: SQLite integrity_check FAILED ({len(findings)} findings)")
        for finding in findings[:5]:
            print(f"  {finding}")
    if report.bad_sketches:
        print(f"undecodable sketches: {', '.join(sorted(report.bad_sketches))}")
    if report.stale_prepared:
        print(f"stale prepared rows: {report.stale_prepared}")
    if report.undecodable_prepared:
        print(f"undecodable prepared rows: {report.undecodable_prepared}")
    if report.bad_digests:
        print(f"rows whose stored digest is wrong: {', '.join(report.bad_digests)}")
    if report.missing_blobs:
        print(f"artifact blobs missing/unreadable: {len(report.missing_blobs)}")
    if report.corrupt_blobs:
        print(f"artifact blobs corrupt: {len(report.corrupt_blobs)}")
    if report.missing_entries:
        print(f"manifest entries absent locally: {len(report.missing_entries)}")
    if args.repair:
        print(
            f"repairs: {report.resketched} re-sketched, {report.repulled} "
            f"re-pulled, {report.pruned_prepared} stale or undecodable prepared "
            f"rows pruned, {report.rehashed} rewritten to mend their digest"
        )
        if report.unrepaired:
            print(f"unrepaired: {', '.join(sorted(set(report.unrepaired)))}")
        if report.healthy_after_repair:
            print("verify: all findings repaired" if not report.clean else "verify: clean")
            return 0
        return 1
    if report.clean:
        print("verify: clean")
        return 0
    return 1


def _command_lake_watch(args: argparse.Namespace) -> int:
    from repro.artifacts import LakeWatcher, WatchReport

    if not args.input.is_dir():
        return fail(f"not a directory: {args.input}")

    def _print_report(report: WatchReport) -> None:
        if not report.changed:
            return
        suffix = "" if report.publish is None else (
            f"; republished {report.publish.snapshot_id[:12]}"
        )
        print(
            f"[watch] {report.seen} files: {report.sketched} sketched, "
            f"{report.removed} removed, {report.prepared} prepared{suffix}",
            flush=True,
        )

    with open_lake(
        args.store, create=True, prepared=None if args.prepare is None else "create"
    ) as (store, prepared_store):
        watcher = LakeWatcher(
            store,
            args.input,
            prepared_store=prepared_store,
            matcher=None if args.prepare is None else create_matcher(args.prepare),
            publish_dir=args.publish,
            workers=args.workers,
        )
        try:
            polls = watcher.run(
                interval_s=args.interval_s,
                max_polls=args.max_polls,
                on_report=_print_report,
            )
        except KeyboardInterrupt:
            polls = None
    suffix = "interrupted" if polls is None else f"{polls} polls"
    print(f"watch on {args.input} stopped ({suffix}); store {args.store}")
    return 0
