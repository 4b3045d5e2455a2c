"""Parallel lake construction and prepared-store pre-warming.

``lake build`` spends its time in two embarrassingly parallel per-table
steps — reading a CSV and sketching its columns — while the SQLite store
itself wants exactly one writer.  :func:`build_from_paths` splits the work
accordingly: a process pool reads + sketches in batches, and the owning
process is the **single writer** committing finished
:class:`~repro.lake.profiles.TableSketch` payloads via
:meth:`SketchStore.add_sketch <repro.lake.store.SketchStore.add_sketch>`.

Cache-invalidation semantics are identical to the serial path: each worker
hashes the table it read and compares against the hash recorded in the
store (shipped with the task), so unchanged tables cost one read + hash and
are never re-sketched — and never re-enter the writer.

:func:`prepare_lake` is the analogous fan-out for the *prepared-candidate*
store: it pre-computes one matcher's
:meth:`~repro.matchers.base.BaseMatcher.prepare` payload for every lake
table (workers prepare, the owner writes), so the very first discovery
query runs warm.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.data.csv_io import UNREADABLE_CSV, read_csv
from repro.data.fingerprint import table_content_hash
from repro.discovery.prepared import PreparedStore
from repro.lake.profiles import SketchConfig, TableSketch, sketch_table
from repro.lake.store import SketchStore
from repro.matchers.base import BaseMatcher, PreparedTable

__all__ = ["BuildReport", "PrepareReport", "build_from_paths", "prepare_lake"]

logger = logging.getLogger(__name__)


@dataclass
class BuildReport:
    """Outcome of one :func:`build_from_paths` run."""

    sketched: int = 0
    unchanged: int = 0
    unreadable: list[str] = field(default_factory=list)
    #: Stale tables dropped because their CSV is gone (``remove_missing``).
    removed: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.sketched + self.unchanged + len(self.unreadable)


@dataclass
class PrepareReport:
    """Outcome of one :func:`prepare_lake` run."""

    prepared: int = 0
    already_stored: int = 0
    missing: list[str] = field(default_factory=list)
    #: Tables whose current CSV content no longer matches the hash recorded
    #: at build time; they were prepared and stored under their *current*
    #: hash, but warm lookups keyed on the stale build hash will miss until
    #: the lake is rebuilt.
    stale: list[str] = field(default_factory=list)
    #: Stored payloads dropped because their build-time content hash no
    #: longer matches the sketch store (table re-sketched or removed).
    stale_pruned: int = 0


def _effective_workers(workers: Optional[int], num_tasks: int) -> int:
    if workers is None or workers <= 1 or num_tasks <= 1:
        return 1
    return min(workers, num_tasks)


# ---------------------------------------------------------------------- #
# sketch build
# ---------------------------------------------------------------------- #

#: Worker task/result for the parallel build.  Results are one of
#: ``("sketched", name, sketch, path, None)``,
#: ``("unchanged", name, None, path, None)`` or
#: ``("unreadable", stem, None, path, error message)``.
_BuildTask = tuple[str, Optional[str], SketchConfig]
_BuildOutcome = tuple[str, str, Optional[TableSketch], str, Optional[str]]


def _read_and_sketch(task: _BuildTask) -> _BuildOutcome:
    """Read one CSV and sketch it unless the stored hash says it is unchanged."""
    path, known_hash, config = task
    try:
        table = read_csv(path)
    except UNREADABLE_CSV as exc:
        return ("unreadable", Path(path).stem, None, path, str(exc))
    content_hash = table_content_hash(table)
    if known_hash is not None and content_hash == known_hash:
        return ("unchanged", table.name, None, path, None)
    sketch = sketch_table(table, config, content_hash=content_hash)
    return ("sketched", table.name, sketch, path, None)


def build_from_paths(
    store: SketchStore,
    csv_paths: Sequence[Union[str, Path]],
    workers: Optional[int] = None,
    on_unreadable: Optional[Callable[[str], None]] = None,
    remove_missing: bool = False,
) -> BuildReport:
    """(Re)build *store* from CSV files, optionally with a process pool.

    Parameters
    ----------
    store:
        The sketch store to populate; opened (and written) only in the
        calling process — workers never touch SQLite.
    csv_paths:
        CSV files, one table each (the table name is the file stem).
    workers:
        Process-pool size.  ``None``/``0``/``1`` runs serially in-process;
        results are identical either way.
    on_unreadable:
        Optional callback invoked with a human-readable message for every
        CSV that could not be parsed (the table is skipped).
    remove_missing:
        Also drop stored tables that no longer appear in *csv_paths* —
        ``lake build --prune`` semantics.  Tables whose CSV is present but
        currently unreadable are kept (a transient parse error should not
        destroy a good sketch).
    """
    report = BuildReport()
    # One batched store round trip for the known hashes, not one per CSV.
    known = store.table_meta([Path(path).stem for path in csv_paths])
    tasks: list[_BuildTask] = [
        (str(path), known.get(Path(path).stem, (None, None))[0], store.config)
        for path in csv_paths
    ]
    effective = _effective_workers(workers, len(tasks))
    if effective == 1:
        outcomes = map(_read_and_sketch, tasks)
        _commit_build(store, outcomes, report, on_unreadable)
    else:
        # Batched map keeps per-task pickling overhead low: each worker
        # receives a slice of paths and returns a slice of sketches.
        chunksize = max(1, len(tasks) // (effective * 4))
        with ProcessPoolExecutor(max_workers=effective) as pool:
            outcomes = pool.map(_read_and_sketch, tasks, chunksize=chunksize)
            _commit_build(store, outcomes, report, on_unreadable)
    if remove_missing:
        _remove_missing(store, csv_paths, report)
    return report


def _remove_missing(
    store: SketchStore,
    csv_paths: Sequence[Union[str, Path]],
    report: BuildReport,
) -> None:
    current = {Path(path).stem for path in csv_paths}
    for name in store.table_names:
        if name in current:
            continue  # present (even if unreadable this run)
        if store.remove_table(name):
            report.removed.append(name)
            logger.info("pruned stale table %r (source CSV gone)", name)


def _commit_build(
    store: SketchStore,
    outcomes,
    report: BuildReport,
    on_unreadable: Optional[Callable[[str], None]],
) -> BuildReport:
    for status, name, sketch, path, error in outcomes:
        # Absolute paths so later `lake query` calls resolve candidates
        # from any working directory.
        resolved = str(Path(path).resolve())
        if status == "unreadable":
            report.unreadable.append(name)
            logger.warning("skipping unreadable %s: %s", path, error)
            if on_unreadable is not None:
                on_unreadable(f"skipping unreadable {path}: {error}")
        elif status == "unchanged":
            # Single hash, no re-sketch; still refresh a moved source path.
            store.refresh_source_path(name, resolved)
            report.unchanged += 1
        else:
            store.add_sketch(sketch, source_path=resolved)
            report.sketched += 1
    return report


# ---------------------------------------------------------------------- #
# prepared-store pre-warming
# ---------------------------------------------------------------------- #

_PREPARE_MATCHER: Optional[BaseMatcher] = None


def _prepare_worker_init(matcher: BaseMatcher) -> None:
    global _PREPARE_MATCHER
    _PREPARE_MATCHER = matcher


def _prepare_one(
    task: tuple[str, str, Optional[str]],
) -> tuple[str, Optional[str], Optional[PreparedTable]]:
    """Read + prepare one lake table; returns (name, content hash, payload)."""
    assert _PREPARE_MATCHER is not None
    name, path, _expected_hash = task
    try:
        table = read_csv(path, name=name)
    except UNREADABLE_CSV:
        return (name, None, None)
    content_hash = table_content_hash(table)
    return (name, content_hash, _PREPARE_MATCHER.prepare(table))


def prepare_lake(
    store: SketchStore,
    prepared_store: PreparedStore,
    matcher: BaseMatcher,
    workers: Optional[int] = None,
) -> PrepareReport:
    """Pre-compute *matcher*'s prepared payload for every table in the lake.

    Tables whose payload is already stored under ``(matcher fingerprint,
    name, build-time content hash)`` are skipped; the rest are loaded from
    their recorded source CSVs, prepared (in a process pool when *workers*
    > 1) and written by the calling process — the same single-writer rule
    as :func:`build_from_paths`.  Tables with no readable source CSV are
    reported as missing.
    """
    fingerprint = matcher.fingerprint()
    report = PrepareReport()
    # Two batched round trips — (hash, path) metadata from the sketch store
    # and an existence probe against the prepared store — instead of three
    # point queries per lake table.  The probe never decodes payloads.
    names = store.table_names
    meta = store.table_meta(names)
    # Drop this matcher's payloads whose build-time content hash no longer
    # matches the sketch store (table re-sketched or removed) *before*
    # preparing, so rows written below can never be collateral damage.
    report.stale_pruned = prepared_store.prune_stale(
        fingerprint,
        {name: content_hash for name, (content_hash, _) in meta.items() if content_hash},
    )
    stored = prepared_store.contains_many(
        fingerprint,
        [(name, meta[name][0]) for name in names if name in meta and meta[name][0]],
    )
    tasks: list[tuple[str, str, Optional[str]]] = []
    for name in names:
        stored_hash, path = meta.get(name, (None, None))
        if name in stored:
            report.already_stored += 1
            continue
        if path is None:
            report.missing.append(name)
            continue
        tasks.append((name, path, stored_hash))

    def _commit(outcome: tuple[str, Optional[str], Optional[PreparedTable]]) -> None:
        name, content_hash, prepared = outcome
        if prepared is None:
            logger.warning(
                "prepare_lake: table %r has no readable source CSV; skipping", name
            )
            report.missing.append(name)
            return
        prepared_store.put(prepared, content_hash=content_hash)
        report.prepared += 1
        expected = meta.get(name, (None, None))[0]
        if expected is not None and expected != content_hash:
            report.stale.append(name)

    effective = _effective_workers(workers, len(tasks))
    if effective == 1:
        _prepare_worker_init(matcher)
        try:
            for task in tasks:
                _commit(_prepare_one(task))
        finally:
            _prepare_worker_init(None)  # type: ignore[arg-type]
        return report
    with ProcessPoolExecutor(
        max_workers=effective,
        initializer=_prepare_worker_init,
        initargs=(matcher,),
    ) as pool:
        for outcome in pool.map(_prepare_one, tasks):
            _commit(outcome)
    return report
