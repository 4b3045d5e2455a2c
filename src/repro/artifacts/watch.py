"""Incremental lake ingestion: keep a sketch store in sync with a directory.

``lake watch <data-dir>`` polls a directory of CSVs and folds changes into
the stores without ever rebuilding the world:

* a cheap ``(mtime_ns, size)`` prefilter decides which files even get
  *read* — an idle poll over a 100k-file lake is pure ``stat`` calls;
* files that pass the prefilter go through the ordinary
  :func:`~repro.lake.build.build_from_paths` path, whose
  ``table_content_hash`` comparison confirms real content change (a
  ``touch`` re-reads but never re-sketches or re-enters the writer);
* stems that vanish from the directory are removed from the sketch store
  (and their prepared payloads pruned on the next ``prepare`` pass).

The watcher is the lake's single writer; combined with
:func:`~repro.artifacts.sync.publish_snapshot` (see *publish_dir*) it turns
a plain directory of CSVs into a continuously re-published snapshot that
replica ``lake serve`` nodes pull from.

Quarantine.  A persistently broken file (truncated upload, wrong encoding,
a producer re-writing garbage every cycle) must not be re-read — or worse,
re-failed — on every poll forever.  After ``QUARANTINE_AFTER`` (3)
consecutive failed attempts a path is *parked*: the watcher skips it for a
backoff window measured in polls (``QUARANTINE_BASE_POLLS``, 4, doubling up
to ``QUARANTINE_MAX_POLLS``, 64), then retries once; a success releases
it, another failure re-parks it with a longer window.  Windows are counted
in polls, not seconds, so quarantine is reproducible whatever the poll
interval.  Parked tables keep their last good sketch — quarantine
gates *ingestion attempts*, never store contents.  Counters:
``watch.quarantined`` / ``watch.released`` / ``watch.stat_errors``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.artifacts.sync import PublishReport, publish_snapshot
from repro.discovery.prepared import PreparedStore
from repro.lake.build import build_from_paths, prepare_lake
from repro.lake.store import SketchStore
from repro.matchers.base import BaseMatcher
from repro.telemetry import recorder as telemetry

__all__ = ["LakeWatcher", "WatchReport"]

logger = logging.getLogger(__name__)

#: ``(mtime_ns, size)`` — the prefilter identity of one file on disk.
_FileStamp = tuple[int, int]

#: Consecutive failed ingestion attempts before a path is parked.
QUARANTINE_AFTER = 3
#: First backoff window, in polls, and the cap its doubling stops at.
QUARANTINE_BASE_POLLS = 4
QUARANTINE_MAX_POLLS = 64


@dataclass
class WatchReport:
    """Outcome of one :meth:`LakeWatcher.poll_once` pass."""

    #: Files present in the directory this poll.
    seen: int = 0
    #: Files whose stamp changed (or were new) and were re-read.
    candidates: int = 0
    sketched: int = 0
    unchanged: int = 0
    removed: int = 0
    prepared: int = 0
    stale_pruned: int = 0
    unreadable: list[str] = field(default_factory=list)
    publish: Optional[PublishReport] = None
    #: Quarantine traffic this poll: stems newly parked (or re-parked after
    #: a failed probe), stems released after healing, and every stem
    #: currently sitting in quarantine.
    quarantined: list[str] = field(default_factory=list)
    released: list[str] = field(default_factory=list)
    parked: list[str] = field(default_factory=list)
    #: Files whose ``stat`` failed during the scan (permissions, I/O).
    stat_errors: int = 0
    #: Post-ingest stages that failed this poll (the loop keeps running).
    prepare_error: Optional[str] = None
    publish_error: Optional[str] = None

    @property
    def changed(self) -> bool:
        """True when this poll mutated the stores."""
        return bool(self.sketched or self.removed or self.prepared or self.stale_pruned)


class LakeWatcher:
    """Polls *data_dir* and incrementally maintains the lake stores.

    Parameters
    ----------
    store:
        The sketch store to keep in sync (this process must be its single
        writer).
    data_dir:
        Directory of one-table-per-file CSVs (table name = file stem); the
        watcher tracks its ``*.csv`` files.
    prepared_store / matcher:
        When both are given, each mutating poll also runs
        :func:`~repro.lake.build.prepare_lake` so changed tables are
        re-prepared and stale payloads pruned — replicas stay warm.
    publish_dir:
        When set, every mutating poll re-publishes the stores there via
        :func:`~repro.artifacts.sync.publish_snapshot` (O(delta) thanks to
        content addressing).
    workers:
        Forwarded to the build/prepare process pools.
    """

    def __init__(
        self,
        store: SketchStore,
        data_dir: Union[str, Path],
        prepared_store: Optional[PreparedStore] = None,
        matcher: Optional[BaseMatcher] = None,
        publish_dir: Optional[Union[str, Path]] = None,
        workers: Optional[int] = None,
    ) -> None:
        if (prepared_store is None) != (matcher is None):
            raise ValueError("prepared_store and matcher must be given together")
        self.store = store
        self.data_dir = Path(data_dir)
        self.prepared_store = prepared_store
        self.matcher = matcher
        self.publish_dir = Path(publish_dir) if publish_dir is not None else None
        self.workers = workers
        self._stamps: dict[str, _FileStamp] = {}
        self._poll_index = 0
        #: path -> consecutive failed ingestion attempts.
        self._failures: dict[str, int] = {}
        #: path -> (poll index at which to probe again, current window).
        self._quarantine: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # one poll
    # ------------------------------------------------------------------ #
    def _scan(self, report: WatchReport) -> dict[str, _FileStamp]:
        """Current ``path -> (mtime_ns, size)`` map of the tracked files."""
        stamps: dict[str, _FileStamp] = {}
        if not self.data_dir.is_dir():
            return stamps
        for path in sorted(self.data_dir.glob("*.csv")):
            try:
                stat = path.stat()
            except OSError as exc:
                # Usually a race with a delete (the next poll settles it),
                # but permission or I/O errors hide here too — surface the
                # skip instead of silently thinning the lake.
                report.stat_errors += 1
                telemetry.count("watch.stat_errors")
                logger.warning("skipping %s this poll: stat failed (%s)", path, exc)
                continue
            if path.is_file():
                stamps[str(path)] = (stat.st_mtime_ns, stat.st_size)
        return stamps

    # ------------------------------------------------------------------ #
    # quarantine bookkeeping
    # ------------------------------------------------------------------ #
    def _is_parked(self, path: str) -> bool:
        """In quarantine and its probe poll has not arrived yet."""
        entry = self._quarantine.get(path)
        return entry is not None and self._poll_index < entry[0]

    def _note_failure(self, path: str, report: WatchReport) -> None:
        count = self._failures.get(path, 0) + 1
        self._failures[path] = count
        previous = self._quarantine.get(path)
        if previous is None and count < QUARANTINE_AFTER:
            return  # still inside the grace window; retried on next change
        if previous is None:
            window = QUARANTINE_BASE_POLLS
        else:
            window = min(QUARANTINE_MAX_POLLS, previous[1] * 2)
        self._quarantine[path] = (self._poll_index + window, window)
        report.quarantined.append(Path(path).stem)
        telemetry.count("watch.quarantined")
        logger.warning(
            "quarantined %s after %d consecutive failures; next attempt in "
            "%d polls (last good sketch, if any, stays served)",
            path,
            count,
            window,
        )

    def _note_success(self, path: str, report: WatchReport) -> None:
        self._failures.pop(path, None)
        if self._quarantine.pop(path, None) is not None:
            report.released.append(Path(path).stem)
            telemetry.count("watch.released")
            logger.info("released %s from quarantine: it reads cleanly again", path)

    def _forget(self, path: str) -> None:
        self._failures.pop(path, None)
        self._quarantine.pop(path, None)

    def poll_once(self) -> WatchReport:
        """Scan the directory once and fold any changes into the stores."""
        report = WatchReport()
        self._poll_index += 1
        with telemetry.span("artifacts.watch.poll", data_dir=str(self.data_dir)):
            current = self._scan(report)
            report.seen = len(current)
            changed = [
                path
                for path, stamp in current.items()
                if self._stamps.get(path) != stamp and not self._is_parked(path)
            ]
            # Quarantined paths whose window elapsed get one unconditional
            # probe — even with an unchanged stamp, so operators see the
            # table either heal or re-park on a schedule.
            due = [
                path
                for path, (probe_at, _window) in self._quarantine.items()
                if path in current and self._poll_index >= probe_at
            ]
            changed = sorted(set(changed) | set(due))
            vanished = [path for path in self._stamps if path not in current]
            report.candidates = len(changed)
            if changed:
                build = build_from_paths(self.store, changed, workers=self.workers)
                report.sketched = build.sketched
                report.unchanged = build.unchanged
                report.unreadable = list(build.unreadable)
                broken = set(build.unreadable)
                for path in changed:
                    if Path(path).stem in broken:
                        self._note_failure(path, report)
                    else:
                        self._note_success(path, report)
            for path in vanished:
                # One file, one table: a vanished CSV retires its stem.
                if self.store.remove_table(Path(path).stem):
                    report.removed += 1
                self._forget(path)
            # Record stamps for everything seen — including unchanged and
            # unreadable files, so a broken CSV is not re-read every poll
            # (editing it changes its stamp and retriggers).
            self._stamps = current
            report.parked = sorted(
                Path(path).stem
                for path in self._quarantine
                if path in current
            )
            if report.changed and self.prepared_store is not None:
                try:
                    prep = prepare_lake(
                        self.store,
                        self.prepared_store,
                        self.matcher,
                        workers=self.workers,
                    )
                except Exception as exc:
                    # A poisoned prepare must not wedge the watch loop; the
                    # next mutating poll retries with fresh inputs.
                    report.prepare_error = str(exc)
                    telemetry.count("watch.prepare_errors")
                    logger.warning("prepare pass failed this poll: %s", exc)
                else:
                    report.prepared = prep.prepared
                    report.stale_pruned = prep.stale_pruned
            if report.changed and self.publish_dir is not None:
                try:
                    report.publish = publish_snapshot(
                        self.store,
                        self.publish_dir,
                        prepared_store=self.prepared_store,
                    )
                except Exception as exc:
                    report.publish_error = str(exc)
                    telemetry.count("watch.publish_errors")
                    logger.warning("publish failed this poll: %s", exc)
        telemetry.count("artifacts.watch.polls")
        if report.changed:
            telemetry.count("artifacts.watch.changed_polls")
            telemetry.count("artifacts.watch.sketched", report.sketched)
            telemetry.count("artifacts.watch.removed", report.removed)
            logger.info(
                "watch poll: %d files, %d sketched, %d removed, %d prepared%s",
                report.seen,
                report.sketched,
                report.removed,
                report.prepared,
                "" if report.publish is None else ", republished",
            )
        return report

    # ------------------------------------------------------------------ #
    # polling loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        interval_s: float = 2.0,
        max_polls: Optional[int] = None,
        stop: Optional[threading.Event] = None,
        on_report: Optional[Callable[[WatchReport], None]] = None,
    ) -> int:
        """Poll until *stop* is set (or *max_polls* exhausted); returns polls run.

        *on_report* is invoked after every poll — CLI progress printing,
        test hooks.  The loop sleeps in small slices so a ``stop`` event is
        honoured promptly even with long intervals.
        """
        polls = 0
        while max_polls is None or polls < max_polls:
            if stop is not None and stop.is_set():
                break
            report = self.poll_once()
            polls += 1
            if on_report is not None:
                on_report(report)
            if max_polls is not None and polls >= max_polls:
                break
            deadline = time.monotonic() + interval_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if stop is not None and stop.wait(min(remaining, 0.1)):
                    return polls
                if stop is None:
                    time.sleep(remaining)
                    break
        return polls
