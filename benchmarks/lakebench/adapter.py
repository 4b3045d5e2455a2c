"""The only lakebench file that imports the program under test.

Everything the workloads need from ``repro`` goes through the small surface
below, driven through the program's *public* functions.  Knobs the ROADMAP
plans to delete (``cascade=``, ``parallel=``, ``min_candidates=``) are
passed only when :func:`inspect.signature` shows the callee still accepts
them, so their removal needs no edit here.
"""

from __future__ import annotations

import http.client
import inspect
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from .trace import TracePoint

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_DIR = REPO_ROOT / "src"

if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
    raise ImportError(f"program under test not found: {SOURCE_DIR / 'repro'} is missing")
if str(SOURCE_DIR) not in sys.path:
    sys.path.insert(0, str(SOURCE_DIR))

from repro import telemetry  # noqa: E402
from repro.artifacts import sync as artifacts_sync  # noqa: E402
from repro.artifacts.watch import LakeWatcher  # noqa: E402
from repro.data import csv_io  # noqa: E402
from repro.discovery import cascade as discovery_cascade  # noqa: E402
from repro.discovery import search as discovery_search  # noqa: E402
from repro.discovery.prepared import PreparedStore  # noqa: E402
from repro.lake import build as lake_build  # noqa: E402
from repro.lake import profiles as lake_profiles  # noqa: E402
from repro.lake.engine import LakeDiscoveryEngine  # noqa: E402
from repro.lake.index import LakeIndex  # noqa: E402
from repro.lake.store import SketchStore  # noqa: E402
from repro.matchers.registry import create_matcher  # noqa: E402
from repro.serve import client as serve_client  # noqa: E402
from repro.serve import protocol as serve_protocol  # noqa: E402
from repro.serve.server import DiscoveryServer, ServeConfig  # noqa: E402

Row = tuple[str, float, float]


def _accepted(callee: Callable, **knobs: Any) -> dict[str, Any]:
    """The subset of *knobs* that *callee* still has parameters for."""
    parameters = inspect.signature(callee).parameters
    return {key: value for key, value in knobs.items() if key in parameters}


def subprocess_env() -> dict[str, str]:
    """Environment for program subprocesses (``python -m repro.cli ...``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def read_table(path: Path) -> Any:
    return csv_io.read_csv(path)


# ---------------------------------------------------------------------- #
# stores, build, engine
# ---------------------------------------------------------------------- #
class Stores:
    """A sketch store and (optionally) the prepared store next to it."""

    def __init__(self, directory: Path, prepared: bool) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.sketch_path = directory / "lake.sketches"
        self.prepared_path = directory / "lake.sketches.prepared"
        self.sketch = SketchStore(self.sketch_path)
        self.prepared = PreparedStore(self.prepared_path) if prepared else None

    def close(self) -> None:
        if self.prepared is not None:
            self.prepared.close()
        self.sketch.close()

    def content_hashes(self, names: Sequence[str]) -> dict[str, str]:
        return {name: entry[0] for name, entry in self.sketch.table_meta(names).items()}


def build(stores: Stores, csv_paths: Sequence[Path], workers: Optional[int] = None) -> int:
    """``build_from_paths``; returns how many tables were (re)sketched."""
    return lake_build.build_from_paths(stores.sketch, csv_paths, workers=workers).sketched


def prepare(stores: Stores, method: str) -> int:
    report = lake_build.prepare_lake(stores.sketch, stores.prepared, create_matcher(method))
    return report.prepared


class Engine:
    """One ``LakeDiscoveryEngine`` plus the query knobs its workload fixed."""

    def __init__(self, stores: Stores, method: str, min_candidates: Optional[int] = None):
        knobs = {}
        if min_candidates is not None:
            knobs = _accepted(LakeDiscoveryEngine, min_candidates=min_candidates)
        self.engine = LakeDiscoveryEngine(
            matcher=create_matcher(method),
            store=stores.sketch,
            prepared_store=stores.prepared,
            **knobs,
        )

    def query(self, table: Any, top_k: int, mode: str) -> tuple[list[Row], dict]:
        """Plain serial rerank; returns (ranking rows, the program's stats)."""
        results = self.engine.query(
            table,
            mode=mode,
            top_k=top_k,
            **_accepted(self.engine.query, parallel=False, cascade=False),
        )
        stats = self.engine.last_query_stats
        return (
            [(r.table_name, r.joinability, r.unionability) for r in results],
            {
                "shortlist_size": stats.shortlist_size,
                "rerank_count": stats.rerank_count,
                "store_hits": stats.store_hits,
                "total_seconds": stats.total_seconds,
                "cascade_skipped": stats.cascade_skipped,
                "cascade_exact": stats.cascade_exact,
            },
        )

    def close(self) -> None:
        self.engine.close()


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def serve_argv(store_path: Path, socket_path: str, method: str) -> list[str]:
    """Command line of the daemon: default config plus ``--cascade``."""
    return [
        sys.executable, "-m", "repro.cli", "lake", "serve",
        "--store", str(store_path), "--method", method,
        "--cascade", "--unix-socket", socket_path,
    ]  # fmt: skip


def host_server(store_path: Path, socket_path: str, method: str) -> DiscoveryServer:
    """The same daemon hosted in this process, so the shims can see it."""
    config = ServeConfig(
        store_path=store_path,
        method=method,
        unix_socket=Path(socket_path),
        **_accepted(ServeConfig, cascade=True),
    )
    return DiscoveryServer(config)


class Client:
    def __init__(self, socket_path: str) -> None:
        self.client = serve_client.ServeClient(unix_socket=socket_path, timeout_s=60.0)

    def query(self, table: Any, top_k: int, mode: str) -> tuple[list[Row], dict]:
        response = self.client.query(table, mode=mode, top_k=top_k)
        rows = [
            (r["table_name"], r["joinability"], r["unionability"])
            for r in response["results"]
        ]
        stats = dict(response.get("stats", {}))
        stats["coalesced"] = bool(response.get("coalesced"))
        return rows, stats

    def ready(self) -> bool:
        try:
            return self.client.healthz().get("status") == "ok"
        except (OSError, http.client.HTTPException, serve_client.ServeError):
            return False

    def stats(self) -> dict:
        return self.client.stats()

    def close(self) -> None:
        self.client.close()


def error_status(exc: Exception) -> Optional[int]:
    """HTTP status behind a client exception (None for transport errors)."""
    return exc.status if isinstance(exc, serve_client.ServeError) else None


def pool_spawn_seconds() -> float:
    """Spawn a fresh default-sized rerank pool and wait for every worker."""
    table = csv_io.table_from_csv_text("a\n1\n", name="probe")
    pool = discovery_search.RerankPool()
    started = time.perf_counter()
    try:
        pool.map(lake_profiles.table_content_hash, [table] * pool.workers)
        return time.perf_counter() - started
    finally:
        pool.close()


# ---------------------------------------------------------------------- #
# publish / pull / watch
# ---------------------------------------------------------------------- #
def publish(stores: Stores, artifact_dir: Path) -> dict:
    report = artifacts_sync.publish_snapshot(
        stores.sketch, artifact_dir, prepared_store=stores.prepared
    )
    return {"bytes_written": report.bytes_written, "blobs_written": report.blobs_written}


def pull(artifact_dir: Path, stores: Stores) -> dict:
    report = artifacts_sync.pull_snapshot(
        artifact_dir, stores.sketch, prepared_store=stores.prepared
    )
    return {
        "tables_added": report.tables_added,
        "bytes_fetched": report.bytes_fetched,
        "blobs_fetched": report.blobs_fetched,
        "iblt_decoded": report.iblt_decoded,
        "iblt_fallback": report.iblt_fallback,
        "retries": report.retries,
        "corrupt": len(report.corrupt),
    }


class Watcher:
    def __init__(self, stores: Stores, data_dir: Path, method: str, publish_dir: Path):
        self.watcher = LakeWatcher(
            stores.sketch,
            data_dir,
            prepared_store=stores.prepared,
            matcher=create_matcher(method),
            publish_dir=publish_dir,
        )

    def poll(self) -> dict:
        report = self.watcher.poll_once()
        return {
            "sketched": report.sketched,
            "prepared": report.prepared,
            "published": report.publish is not None,
            "errors": [e for e in (report.prepare_error, report.publish_error) if e],
        }


# ---------------------------------------------------------------------- #
# program-side counters (traced runs only)
# ---------------------------------------------------------------------- #
class ProgramCounters:
    """The program's own telemetry, switched on for the traced slices."""

    def __init__(self) -> None:
        self.recorder = telemetry.TelemetryRecorder()

    def __enter__(self) -> "ProgramCounters":
        telemetry.set_default_recorder(self.recorder)
        return self

    def __exit__(self, *exc_info: object) -> None:
        telemetry.set_default_recorder(None)

    def snapshot(self) -> dict:
        """``{"counters": {...}, "stages": {name: {count, total, ...}}}``."""
        return self.recorder.snapshot().as_dict()


# ---------------------------------------------------------------------- #
# trace points
# ---------------------------------------------------------------------- #
def _bindings(function: Callable) -> Iterator[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to *function*.

    ``from x import f`` copies the binding into the importing module, so a
    shim has to be installed there too, not only where ``f`` is defined.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                yield module, attr


def _function_points(name: str, function: Callable, measure=None) -> list[TracePoint]:
    return [TracePoint(name, owner, attr, measure) for owner, attr in _bindings(function)]


def _csv_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _result_len(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result))


def trace_points(methods: Sequence[str]) -> list[TracePoint]:
    """Where each layer's public calls live, for :class:`~.trace.Tracer`."""
    points: list[TracePoint] = []
    points += _function_points("data.read_csv", csv_io.read_csv, _csv_bytes)
    points += _function_points("profiles.sketch_table", lake_profiles.sketch_table)
    points += _function_points("cascade.candidate_signals", discovery_cascade.candidate_signals)
    points += _function_points("search.prune_then_rerank", discovery_search.prune_then_rerank)
    points += _function_points("build.build_from_paths", lake_build.build_from_paths)
    points += _function_points("build.prepare_lake", lake_build.prepare_lake)
    points += _function_points("artifacts.publish", artifacts_sync.publish_snapshot)
    points += _function_points("artifacts.pull", artifacts_sync.pull_snapshot)
    points += _function_points("serve.client_encode", serve_protocol.encode_query_request)
    points += [
        TracePoint("index.build", LakeIndex, "from_store"),
        TracePoint("index.candidate_tables", LakeIndex, "candidate_tables", _result_len),
        TracePoint("store.table_meta", SketchStore, "table_meta", _result_len),
        TracePoint("store.add_sketch", SketchStore, "add_sketch"),
        TracePoint("store.iter", SketchStore, "__iter__"),
        TracePoint("prepared.get_many", PreparedStore, "get_many", _result_len),
        TracePoint("prepared.put", PreparedStore, "put"),
        TracePoint("engine.query", LakeDiscoveryEngine, "query"),
        TracePoint("engine.query", LakeDiscoveryEngine, "query_many"),
        TracePoint("artifacts.watch_poll", LakeWatcher, "poll_once"),
    ]
    for method in methods:
        matcher_class = type(create_matcher(method))
        points += [
            TracePoint("matchers.prepare", matcher_class, "prepare"),
            TracePoint("matchers.match_prepared", matcher_class, "match_prepared"),
            TracePoint("matchers.score_bound", matcher_class, "score_bound"),
        ]
    return points
