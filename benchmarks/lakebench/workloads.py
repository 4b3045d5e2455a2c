"""The four lakebench workloads.

Program-agnostic: every call into the program under test goes through the
``program`` object handed in (the adapter module).  A workload knows how to
set the program up from generated CSVs, how to compute reference answers,
and how to run its timed phase; :func:`run` strings those together for one
``--workload/--seed/--seconds/--trace`` invocation.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import lakegen, machine
from .report import END_TO_END, PER_LAYER, dump_json, percentile, tail_percentile
from .trace import OP_SPAN, Tracer

#: Full set-ups per untraced run; ``setup_s`` and ``first_query_ms`` are
#: their medians (every set-up ends with a fresh open and a first query).
SETUP_REPEATS = 3
#: A p75 needs ten samples beyond it, so the timed phase never stops short.
MIN_OPS = 40
#: The timed phase gives up at this multiple of ``--seconds`` regardless.
MAX_STRETCH = 6

FAMILY_LAKE = lakegen.LakeShape("families", tables=72, rows=100, groups=6, queries_per_group=4)
OVERLAP_LAKE = lakegen.LakeShape("overlap", tables=72, rows=100, groups=2, queries_per_group=12, cohort=24)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------- #
# process-tree accounting (Linux /proc)
# ---------------------------------------------------------------------- #
def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces and parentheses: fields start after the last ')'.
    return text[text.rindex(")") + 2 :].split()


def _tree(pid: int) -> list[int]:
    """*pid* and its live descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, ()))
    return tree


def tree_cpu_seconds(pid: int) -> float:
    """user+sys of *pid*, its live descendants and their reaped children."""
    ticks = 0
    for member in _tree(pid):
        fields = _stat_fields(member)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _CLOCK_TICKS


def tree_peak_rss_mb(pid: int) -> float:
    total_kb = 0
    for member in _tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant its parent orphans.

    A daemon's pool workers and resource tracker outlive it by a moment and
    would otherwise be handed to init, where nobody here could wait for them.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_descendants(session: Optional[int] = None) -> None:
    """Kill every descendant (of *session*, if given) and wait until each has ended.

    Needs :func:`adopt_orphans`: killing a child hands its children to this
    process, so the loop ends only when nothing started from here is left.
    """
    me = os.getpid()
    while True:
        doomed = [pid for pid in _tree(me) if pid != me]
        if session is not None:
            doomed = [pid for pid in doomed if (_stat_fields(pid) or [0] * 4)[3] == str(session)]
        if not doomed:
            return
        for pid in doomed:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in doomed:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # a grandchild: ours on the next round
                pass


def _bytes_of(*paths: Path) -> int:
    total = 0
    for path in paths:
        if path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
        elif path.exists():
            total += path.stat().st_size
    return total


# ---------------------------------------------------------------------- #
# shared pieces
# ---------------------------------------------------------------------- #
@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    trace_out: Optional[Path] = None


@dataclass
class Phase:
    """What one timed phase observed."""

    latencies: list[float] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    lag_s: float = 0.0
    statuses: dict[int, int] = field(default_factory=dict)
    #: One yardstick sample per operation, taken right after it.
    yardstick: list[float] = field(default_factory=list)

    def extend(self, other: "Phase") -> None:
        """Fold a later slice of the same phase into this one."""
        for name, value in vars(other).items():
            if name != "statuses":  # lists concatenate, counts and seconds add
                setattr(self, name, getattr(self, name) + value)
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count


@dataclass
class Query:
    name: str
    table: Any
    related: frozenset
    narrow: bool


class Workload:
    """Set-up, reference answers and timed phase of one workload."""

    shape: lakegen.LakeShape
    methods: tuple[str, ...]
    method: str
    top_k: int
    mode: str
    #: Which query class of the lake the workload cycles through.
    narrow_queries = False

    def __init__(self, config: Config, program: Any, data: Path, truth: dict) -> None:
        self.config = config
        self.program = program
        self.data = data
        self.lake_paths = sorted((data / "lake").glob("*.csv"))
        self.csv_bytes = _bytes_of(data / "lake")
        self.queries = [
            Query(
                name,
                program.read_table(data / "queries" / f"{name}.csv"),
                frozenset(entry["related"]),
                entry["narrow"],
            )
            for name, entry in sorted(truth["queries"].items())
            if entry["narrow"] == self.narrow_queries
        ]
        self.expected: dict[str, list] = {}
        self.generation = 0
        self.store_bytes = 0
        self.extras: dict[str, float] = {}
        self.opened: list[Any] = []  # closed, newest first, by release()
        self.setup_yardstick: list[float] = []

    # -- overridden per workload --------------------------------------- #
    def setup(self) -> dict:
        raise NotImplementedError

    def release(self) -> None:
        """Close whatever the last set-up opened; safe to call twice."""
        while self.opened:
            self.opened.pop().close()

    def reference(self) -> None:
        raise NotImplementedError

    def operation(self, index: int) -> tuple[bool, dict]:
        raise NotImplementedError

    def after_timed(self) -> None:
        """Checks that only make sense once the timed phase is over."""

    def own_layer_values(self, traced: Phase, program_side: dict) -> dict[str, float]:
        """Per-layer metrics only this workload has (traced runs)."""
        return {}

    def pid_under_test(self) -> int:
        """Root of the process tree whose CPU and memory are charged."""
        return os.getpid()

    # -- shared -------------------------------------------------------- #
    def fresh_dir(self) -> Path:
        self.generation += 1
        directory = self.config.workdir / f"gen{self.generation}"
        directory.mkdir(parents=True)
        return directory

    def settle(self, stores: Any, directory: Path, prepared: bool, *more: Path) -> Any:
        """Close the stores, weigh them on disk, and open them again.

        Closing checkpoints the write-ahead logs, so the byte count is the
        same for the same inputs, whatever the auto-checkpoint timing was.
        """
        self.opened.remove(stores)
        stores.close()
        self.store_bytes = _bytes_of(stores.sketch_path, stores.prepared_path, *more)
        self.extras["store.file_bytes"] = float(_bytes_of(stores.sketch_path))
        self.extras["prepared.file_bytes"] = float(_bytes_of(stores.prepared_path))
        return self.open_stores(directory, prepared)

    def build_stores(self, directory: Path, prepared: bool) -> Any:
        """``build_from_paths`` (+ ``prepare_lake``) over the whole lake, settled."""
        stores = self.open_stores(directory, prepared)
        build_started = time.perf_counter()
        self.program.build(stores, self.lake_paths)
        build_s = time.perf_counter() - build_started
        self.pace()
        prepare_s = 0.0
        if prepared:
            self.program.prepare(stores, self.method)
            prepare_s = time.perf_counter() - build_started - build_s
        self.extras.update(_build_extras(len(self.lake_paths), build_s, prepare_s))
        return self.settle(stores, directory, prepared)

    def open_stores(self, directory: Path, prepared: bool) -> Any:
        stores = self.program.Stores(directory, prepared=prepared)
        self.opened.append(stores)
        return stores

    def open_engine(self, stores: Any, **knobs: Any) -> Any:
        engine = self.program.Engine(stores, self.method, **knobs)
        self.opened.append(engine)
        return engine

    def pace(self) -> list[float]:
        """Three yardstick samples between two stages of a set-up."""
        samples = [machine.sample() for _ in range(3)]
        self.setup_yardstick += samples
        return samples

    def setup_report(self, started: float, first_query_s: float, near_first: list[float]) -> dict:
        """What a set-up returns: its own time, net of the yardstick's.

        *near_first* are the samples taken right before the fresh open and
        right after its first answer.
        """
        self.pace()
        samples, self.setup_yardstick = self.setup_yardstick, []
        return {
            "setup_s": time.perf_counter() - started - sum(samples),
            "yardstick": samples,
            "store_ratio": self.store_bytes / self.csv_bytes,
            "first_query": {"ms": 1000 * first_query_s, "yardstick": near_first},
        }

    #: Fresh opens after the last set-up, each timed to its first answer.
    extra_first_queries = 4

    def reopen(self) -> dict:
        """Swap the engine for a fresh one on the same stores; time its first answer."""
        self.opened.remove(self.engine)
        self.engine.close()
        before = [machine.sample() for _ in range(3)]
        started = time.perf_counter()
        self.engine = self.open_engine(self.engine_stores, **self.engine_knobs)
        self.engine.query(self.queries[0].table, self.top_k, self.mode)
        elapsed = time.perf_counter() - started
        return {"ms": 1000 * elapsed, "yardstick": before + [machine.sample() for _ in range(3)]}

    def warmup_queries(self) -> list[Query]:
        """A few queries spread over the set: enough to fill the program's
        caches, cheap enough to repeat with every set-up."""
        return self.queries[1 :: max(1, len(self.queries) // 4)][:4]

    def check_ranking(self, query: Query, rows: list) -> bool:
        return len(rows) >= self.top_k and rows == self.expected[query.name]

    def recall(self) -> float:
        shares = []
        for query in self.queries:
            if query.name in self.expected:
                top = {row[0] for row in self.expected[query.name][: self.top_k]}
                shares.append(len(top & query.related) / min(self.top_k, len(query.related)))
        return statistics.fmean(shares)

    def reference_from(self, stores: Any, queries: list[Query], **engine_knobs: Any) -> None:
        """Reference rankings: a fresh plain serial engine on the same stores."""
        engine = self.program.Engine(stores, self.method, **engine_knobs)
        try:
            for query in queries:
                rows, _ = engine.query(query.table, self.top_k, self.mode)
                if len(rows) < self.top_k:
                    raise RuntimeError(
                        f"{query.name}: reference ranking has {len(rows)} rows, "
                        f"top_k is {self.top_k}: the lake is too small for this workload"
                    )
                self.expected[query.name] = rows
        finally:
            engine.close()

    def timed(self, seconds: float, tracer: Optional[Tracer], min_ops: int) -> Phase:
        """One closed-loop caller; stops on a whole pass over the queries."""
        phase = Phase()
        pid = self.pid_under_test()
        cpu_start = tree_cpu_seconds(pid)
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            done = elapsed >= seconds and index >= min_ops
            if (done and index % self.pass_length == 0) or elapsed >= MAX_STRETCH * seconds:
                break
            with tracer.operation(index) if tracer else nullcontext():
                begin = time.perf_counter()
                try:
                    ok, stats = self.operation(index)
                except Exception as exc:  # an operation that raises is a failed one
                    ok, stats = False, {"error": repr(exc)}
                phase.latencies.append(time.perf_counter() - begin)
            phase.yardstick.append(machine.sample())
            phase.stats.append(stats)
            phase.attempted += 1
            phase.failed += 0 if ok else 1
            index += 1
        # The yardstick ran in this process, between operations: neither its
        # wall clock nor its CPU belongs to the program under test.
        phase.wall_s = time.perf_counter() - started - sum(phase.yardstick)
        phase.cpu_s = tree_cpu_seconds(pid) - cpu_start - sum(phase.yardstick)
        return phase

    @property
    def pass_length(self) -> int:
        return len(self.queries)


class _EngineWorkload(Workload):
    """In-process ``LakeDiscoveryEngine.query`` with one closed-loop caller."""

    prepared: bool
    engine_knobs: dict

    def setup(self) -> dict:
        directory = self.fresh_dir()
        started = time.perf_counter()
        self.pace()
        self.engine_stores = self.build_stores(directory, self.prepared)
        before = self.pace()
        open_started = time.perf_counter()
        self.engine = self.open_engine(self.engine_stores, **self.engine_knobs)
        open_s = time.perf_counter() - open_started
        self.first_rows = self.engine.query(self.queries[0].table, self.top_k, self.mode)[0]
        first_query_s = time.perf_counter() - open_started
        near_first = before + self.pace()
        for query in self.warmup_queries():
            self.engine.query(query.table, self.top_k, self.mode)
        self.extras["engine.open_ms"] = 1000 * open_s
        return self.setup_report(started, first_query_s, near_first)

    def reference(self) -> None:
        self.reference_from(self.engine_stores, self.queries, **self.engine_knobs)
        if not self.check_ranking(self.queries[0], self.first_rows):
            raise RuntimeError("first query of a fresh engine differs from the reference")

    def operation(self, index: int) -> tuple[bool, dict]:
        query = self.queries[index % len(self.queries)]
        rows, stats = self.engine.query(query.table, self.top_k, self.mode)
        return self.check_ranking(query, rows), stats


def _build_extras(tables: int, build_s: float, prepare_s: float) -> dict[str, float]:
    return {
        "build.build_from_paths_ms": 1000 * build_s,
        "build.prepare_lake_ms": 1000 * prepare_s,
        "build.ingest_tables_per_s": tables / build_s,
        "build.prepare_tables_per_s": tables / prepare_s if prepare_s else 0.0,
    }


class WarmStore(_EngineWorkload):
    shape = FAMILY_LAKE
    method = "SemProp"
    methods = ("SemProp",)
    top_k = 10
    mode = "joinable"
    prepared = True
    #: Larger than the lake, so every table with any sketch evidence is reranked.
    engine_knobs = {"min_candidates": 200}


class ColdMatcher(_EngineWorkload):
    shape = FAMILY_LAKE
    method = "Cupid"
    methods = ("Cupid",)
    top_k = 4
    mode = "joinable"
    prepared = False
    engine_knobs: dict = {}

    # Cupid costs (query columns x candidate columns) per pair and nothing is
    # cached between queries: the narrow query of each family keeps the
    # minimum operation count inside the run's time budget.
    narrow_queries = True


class Served(Workload):
    """``lake serve --cascade`` under closed-loop clients."""

    shape = OVERLAP_LAKE
    method = "SemProp"
    methods = ("SemProp",)
    top_k = 20
    mode = "joinable"
    #: Every fourth request of a caller repeats what another has in flight.
    duplicate_every = 4
    extra_first_queries = 0  # a fresh daemon costs seconds, not milliseconds

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.clients = min(os.cpu_count() or 1, 4)
        self.process: Optional[subprocess.Popen] = None
        self.server: Any = None

    def pid_under_test(self) -> int:
        return self.process.pid if self.process is not None else os.getpid()

    def setup(self) -> dict:
        directory = self.fresh_dir()
        started = time.perf_counter()
        self.pace()
        self.stores = self.build_stores(directory, True)
        self.pace()
        # AF_UNIX paths are capped near 100 bytes: address the socket
        # relative to the working directory both sides share.
        self.socket = os.path.relpath(directory / "serve.sock")
        self.log_path = directory / "serve.log"
        spawn_started = time.perf_counter()
        # Traced runs host the daemon here so the shims see its layers.
        ready_s = self.launch(hosted=self.config.trace)
        client = self.program.Client(self.socket)
        try:
            self.first_rows = client.query(self.queries[0].table, self.top_k, self.mode)[0]
            first_query_s = time.perf_counter() - spawn_started
            self.pace()
            for query in self.warmup_queries():
                client.query(query.table, self.top_k, self.mode)
        finally:
            client.close()
        self.extras["serve.ready_ms"] = 1000 * ready_s
        # Spawn, imports and pool start are many processes' work: no
        # yardstick samples for the first query (see machine.py).
        return self.setup_report(started, first_query_s, [])

    def launch(self, hosted: bool) -> float:
        """Start the daemon; returns the seconds until ``/healthz`` said ok."""
        started = time.perf_counter()
        if hosted:
            self.server = self.program.host_server(self.stores.sketch_path, self.socket, self.method)
            self.server.start()
        else:
            self.log = open(self.log_path, "ab")
            self.process = subprocess.Popen(
                self.program.serve_argv(self.stores.sketch_path, self.socket, self.method),
                env=self.program.subprocess_env(),
                stdout=self.log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self._wait_ready(started)
        return time.perf_counter() - started

    def _wait_ready(self, started: float) -> None:
        while time.perf_counter() - started < 60.0:
            if self.process is not None and self.process.poll() is not None:
                raise RuntimeError(f"lake serve exited with {self.process.returncode}")
            if os.path.exists(self.socket):
                client = self.program.Client(self.socket)
                try:
                    if client.ready():
                        return
                finally:
                    client.close()
            time.sleep(0.01)
        raise RuntimeError("lake serve did not become ready within 60 s")

    def release(self) -> None:
        self.stop_daemon()
        super().release()

    def stop_daemon(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.process is not None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
            # Whatever is left of the daemon's session: itself if it ignored
            # the signal, its pool workers and resource tracker otherwise.
            reap_descendants(session=self.process.pid)
            self.process.wait()
            self.process = None
            self.log.close()

    def reference(self) -> None:
        self.reference_from(self.stores, self.queries)
        if not self.check_ranking(self.queries[0], self.first_rows):
            raise RuntimeError("first served answer differs from the reference")

    def timed(self, seconds: float, tracer: Optional[Tracer], min_ops: int) -> Phase:
        phase = Phase()  # no yardstick samples here: see machine.py
        lock = threading.Lock()
        inflight: dict[int, Query] = {}
        started = time.perf_counter()

        def caller(me: int) -> None:
            own = self.queries[me :: self.clients]
            client = self.program.Client(self.socket)
            issued = issued_own = 0
            last_done = time.perf_counter()
            try:
                while True:
                    with lock:
                        elapsed = time.perf_counter() - started
                        if (elapsed >= seconds and phase.attempted >= min_ops) or elapsed >= MAX_STRETCH * seconds:
                            return
                        others = [q for who, q in sorted(inflight.items()) if who != me]
                        issued += 1
                        if others and issued % self.duplicate_every == 0:
                            query = others[0]
                        else:
                            query = own[issued_own % len(own)]
                            issued_own += 1
                        inflight[me] = query
                        op_id = phase.attempted
                        phase.attempted += 1
                    with tracer.operation(op_id) if tracer else nullcontext():
                        begin = time.perf_counter()
                        lag = begin - last_done
                        try:
                            rows, stats = client.query(query.table, self.top_k, self.mode)
                            ok = self.check_ranking(query, rows)
                        except Exception as exc:
                            ok, stats = False, {"error": repr(exc)}
                            status = self.program.error_status(exc)
                            if status is not None:
                                with lock:
                                    phase.statuses[status] = phase.statuses.get(status, 0) + 1
                        last_done = time.perf_counter()
                    stats["latency_s"] = last_done - begin
                    with lock:
                        del inflight[me]
                        phase.latencies.append(last_done - begin)
                        phase.stats.append(stats)
                        phase.failed += 0 if ok else 1
                        phase.lag_s += lag
            finally:
                client.close()

        pid = self.pid_under_test()
        cpu_start = tree_cpu_seconds(pid)
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - started
        phase.cpu_s = tree_cpu_seconds(pid) - cpu_start
        return phase

    def daemon_stats(self) -> dict:
        client = self.program.Client(self.socket)
        try:
            return client.stats()
        finally:
            client.close()

    def own_layer_values(self, traced: Phase, program_side: dict) -> dict[str, float]:
        counters = program_side.get("counters", {})
        answered = [s for s in traced.stats if "total_seconds" in s]
        values = {
            "serve.overhead_ms": 1000 * statistics.fmean(
                s["latency_s"] - s["total_seconds"] for s in answered if not s["coalesced"]
            ),
            # -1: the program no longer exposes the counter.
            "serve.batch_size": counters["serve.batched_queries"] / counters["serve.batches"]
            if counters.get("serve.batches") and "serve.batched_queries" in counters else -1.0,
            "serve.coalesced_share": sum(s["coalesced"] for s in answered) / max(1, traced.attempted),
            "serve.rejected_429": float(traced.statuses.get(429, 0)),
            "serve.expired_504": float(traced.statuses.get(504, 0)),
            "serve.pool_restarts": float(program_side.get("serve", {}).get("pool_restarts", -1)),
            "search.pool_spawn_ms": 1000 * self.program.pool_spawn_seconds(),
        }  # fmt: skip
        # The hosted daemon's start says nothing about `lake serve`'s: start
        # the real one once, just to time it.
        try:
            values["serve.ready_ms"] = 1000 * self.launch(hosted=False)
        finally:
            self.stop_daemon()
        return values


class IngestSync(Workload):
    """Build, prepare, publish, pull — then edit/watch/republish/pull cycles."""

    shape = FAMILY_LAKE
    method = "SemProp"
    methods = ("SemProp",)
    top_k = 10
    mode = "joinable"
    full_pulls = 3
    edits_per_cycle = 3
    check_queries = 8
    engine_knobs = {"min_candidates": 200}

    def setup(self) -> dict:
        directory = self.fresh_dir()
        live = directory / "live"
        shutil.copytree(self.data / "lake", live)  # harness time: the cycles edit these
        self.live_paths = sorted(live.glob("*.csv"))
        self.editable = [p for p in self.live_paths if p.stem.startswith("bg_")]
        self.pristine = {p: p.read_text(encoding="utf-8").splitlines() for p in self.editable}
        self.artifact = directory / "artifact"
        self.cycle = 0
        started = time.perf_counter()
        self.pace()
        publisher = self.open_stores(directory / "publisher", True)
        half = len(self.live_paths) // 2
        build_started = time.perf_counter()
        self.program.build(publisher, self.live_paths[:half], workers=1)
        serial_s = time.perf_counter() - build_started
        self.program.build(publisher, self.live_paths[half:], workers=os.cpu_count())
        parallel_s = time.perf_counter() - build_started - serial_s
        self.pace()
        prepare_started = time.perf_counter()
        self.program.prepare(publisher, self.method)
        prepare_s = time.perf_counter() - prepare_started
        self.pace()
        publish_started = time.perf_counter()
        published = self.program.publish(publisher, self.artifact)
        publish_s = time.perf_counter() - publish_started
        self.publisher = self.settle(publisher, directory / "publisher", True, self.artifact)
        pull_seconds = []
        for attempt in range(self.full_pulls):
            self.replica = self.open_stores(directory / f"replica{attempt}", True)
            pull_started = time.perf_counter()
            self.full_pull = self.program.pull(self.artifact, self.replica)
            pull_seconds.append(time.perf_counter() - pull_started)
            if self.full_pull["tables_added"] != len(self.live_paths):
                raise RuntimeError(f"bootstrap pull missed tables: {self.full_pull}")
        pull_s = statistics.median(pull_seconds)
        self.watcher = self.program.Watcher(self.publisher, live, self.method, self.artifact)
        self.watcher.poll()  # priming poll: stamps every file, changes nothing
        before = self.pace()
        open_started = time.perf_counter()
        self.engine_stores = self.replica
        self.engine = self.open_engine(self.replica, **self.engine_knobs)
        self.first_rows = self.engine.query(self.queries[0].table, self.top_k, self.mode)[0]
        first_query_s = time.perf_counter() - open_started
        near_first = before + self.pace()
        tables = len(self.live_paths)
        self.extras.update(_build_extras(tables, serial_s + parallel_s, prepare_s))
        self.extras.update({
            "build.ingest_tables_per_s": half / serial_s,
            "build.parallel_speedup": ((tables - half) / parallel_s) / (half / serial_s),
            "artifacts.publish_ms": 1000 * publish_s,
            "artifacts.publish_bytes": float(published["bytes_written"]),
            "artifacts.pull_full_ms": 1000 * pull_s,
            "artifacts.pull_bytes": float(self.full_pull["bytes_fetched"]),
            "artifacts.pull_blobs": float(self.full_pull["blobs_fetched"]),
            "artifacts.sync_tables_per_s": tables / (publish_s + pull_s),
        })  # fmt: skip
        return self.setup_report(started, first_query_s, near_first)

    def reference(self) -> None:
        """Replica answers must equal the publisher's, before and after the cycles."""
        self.expected.clear()
        checked = self.queries[: self.check_queries]
        self.reference_from(self.publisher, checked, **self.engine_knobs)
        engine = self.program.Engine(self.replica, self.method, **self.engine_knobs)
        try:
            for query in checked:
                rows, _ = engine.query(query.table, self.top_k, self.mode)
                if not self.check_ranking(query, rows):
                    raise RuntimeError(f"{query.name}: replica ranking differs from the publisher's")
        finally:
            engine.close()

    after_timed = reference

    @property
    def pass_length(self) -> int:
        return 1

    def own_layer_values(self, traced: Phase, program_side: dict) -> dict[str, float]:
        pulls = traced.stats
        decoded = sum(s.get("iblt_decoded", 0) for s in pulls)
        fallback = sum(s.get("iblt_fallback", 0) for s in pulls)
        return {
            "artifacts.iblt_decode_ok_share": decoded / (decoded + fallback) if decoded + fallback else 0.0,
            "artifacts.retries": float(sum(s.get("retries", 0) for s in pulls)),
            "artifacts.delta_bytes_share": statistics.fmean(s.get("bytes_fetched", 0) for s in pulls)
            / self.full_pull["bytes_fetched"],
        }

    def operation(self, index: int) -> tuple[bool, dict]:
        # Counted per set-up, not per timed slice: every cycle must write
        # content the stores have not seen.
        self.cycle += 1
        edited = [
            self.editable[(self.cycle * self.edits_per_cycle + offset) % len(self.editable)]
            for offset in range(self.edits_per_cycle)
        ]
        for path in edited:
            header, *rows = self.pristine[path]
            for row in range(0, len(rows), 10):  # a tenth of the rows get a new key
                key, _, rest = rows[row].partition(",")
                rows[row] = f"{key}_e{self.cycle},{rest}"
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        poll = self.watcher.poll()
        pulled = self.program.pull(self.artifact, self.replica)
        names = [path.stem for path in edited]
        ok = (
            poll["sketched"] == len(edited)
            and poll["prepared"] == len(edited)
            and poll["published"]
            and not poll["errors"]
            and pulled["corrupt"] == 0
            and self.replica.content_hashes(names) == self.publisher.content_hashes(names)
        )
        return ok, pulled


WORKLOADS: dict[str, type[Workload]] = {
    "warm_store": WarmStore,
    "cold_matcher": ColdMatcher,
    "served": Served,
    "ingest_sync": IngestSync,
}


# ---------------------------------------------------------------------- #
# one invocation
# ---------------------------------------------------------------------- #
def run(config: Config, program: Any) -> dict:
    """Generate the lake, run one workload, return the result object."""
    cls = WORKLOADS[config.workload]
    data = config.workdir / "data"
    truth = lakegen.generate(data, config.seed, cls.shape)
    workload = cls(config, program, data, truth)
    if config.trace:
        return _run_traced(workload, config, program)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.release()
            setups.append(workload.setup())
        firsts = [s["first_query"] for s in setups]
        firsts += [workload.reopen() for _ in range(workload.extra_first_queries)]
        workload.reference()
        phase = workload.timed(config.seconds, None, MIN_OPS)
        peak_rss = tree_peak_rss_mb(workload.pid_under_test())
        workload.after_timed()
    finally:
        workload.release()
    completed = phase.attempted - phase.failed
    # Time readings are put in quiet-box units by the yardstick samples taken
    # next to them (see machine.py); ``raw`` keeps what the clock said.
    timed = machine.correction(phase.yardstick)
    preparing = machine.correction([y for s in setups for y in s["yardstick"]])
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_ms": 1000 * percentile(phase.latencies, 0.50),
        "op_p75_ms": 1000 * tail_percentile(phase.latencies, 0.75),
        "ops_per_s": completed / phase.wall_s,
        "cpu_s_per_op": phase.cpu_s / max(1, completed),
        "first_query_ms": statistics.median(f["ms"] for f in firsts),
    }
    values = {
        "setup_s": raw["setup_s"] * preparing,
        "op_p50_ms": raw["op_p50_ms"] * timed,
        "op_p75_ms": raw["op_p75_ms"] * timed,
        "ops_per_s": raw["ops_per_s"] / timed,
        "cpu_s_per_op": raw["cpu_s_per_op"] * timed,
        "first_query_ms": statistics.median(
            f["ms"] * machine.correction(f["yardstick"]) for f in firsts
        ),
        "recall_at_k": workload.recall(),
        "peak_rss_mb": peak_rss,
        "store_bytes_per_csv_byte": setups[0]["store_ratio"],
    }
    result = _result(phase, {name: (values[name], unit) for name, unit, *_ in END_TO_END})
    result["raw"] = {**raw, "box_speed": timed, "box_speed_setup": preparing}
    return result


def _result(phase: Phase, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


#: Traced runs alternate this many untraced and traced slices of the timed
#: phase, so both see the same box and their difference is the tracing.
TRACE_SLICES = 4


def _run_traced(workload: Workload, config: Config, program: Any) -> dict:
    """One traced set-up, then alternating untraced and traced slices."""
    tracer = Tracer()
    points = program.trace_points(workload.methods)
    served = isinstance(workload, Served)
    plain, traced = Phase(), Phase()
    program_side: dict = {}
    counters = program.ProgramCounters()
    try:
        with tracer.installed(points, "setup"), tracer.span("harness.setup"):
            workload.setup()
        workload.reference()
        for index in range(TRACE_SLICES):
            seconds = config.seconds / TRACE_SLICES
            if index % 2 == 0:
                plain.extend(workload.timed(seconds, None, workload.pass_length))
                continue
            before = workload.daemon_stats() if served else None
            with counters, tracer.installed(points, "op"):
                traced.extend(workload.timed(seconds, tracer, workload.pass_length))
            if served:  # the daemon's own recorder, not this process's
                _add_stats_delta(program_side, before, workload.daemon_stats())
        if not served:
            program_side = counters.snapshot()
    finally:
        workload.release()
    if config.trace_out is not None:
        dump_json(tracer.chrome_trace(), config.trace_out, indent=None)
    values = _layer_values(workload, tracer, plain, traced, program_side)
    return _result(traced, {name: (values[name], unit) for name, unit, _ in PER_LAYER})


def _add_stats_delta(total: dict, before: dict, after: dict) -> None:
    """``/stats`` is cumulative: add what one traced slice contributed to *total*."""
    counters = total.setdefault("counters", {})
    for name, value in after.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value - before.get("counters", {}).get(name, 0)
    stages = total.setdefault("stages", {})
    for name, summary in after.get("stages", {}).items():
        old = before.get("stages", {}).get(name, {"count": 0.0, "total": 0.0})
        entry = stages.setdefault(name, {"count": 0.0, "total": 0.0})
        entry["count"] += summary["count"] - old["count"]
        entry["total"] += summary["total"] - old["total"]
    total["serve"] = after.get("serve", {})


#: Per-layer time metric -> span whose self time, per operation, it reports.
#: Together with ``engine.unattributed_ms`` they add up to ``harness.op_wall_ms``.
OP_SPANS = {
    "data.read_csv_ms": "data.read_csv",
    "profiles.sketch_table_ms": "profiles.sketch_table",
    "index.candidate_tables_ms": "index.candidate_tables",
    "store.table_meta_ms": "store.table_meta",
    "store.iter_ms": "store.iter",
    "store.add_sketch_ms": "store.add_sketch",
    "prepared.get_many_ms": "prepared.get_many",
    "prepared.put_ms": "prepared.put",
    "matchers.prepare_ms": "matchers.prepare",
    "matchers.match_prepared_ms": "matchers.match_prepared",
    "matchers.score_bound_ms": "matchers.score_bound",
    "cascade.candidate_signals_ms": "cascade.candidate_signals",
    "search.rerank_self_ms": "search.prune_then_rerank",
    "engine.query_self_ms": "engine.query",
    "serve.client_encode_ms": "serve.client_encode",
    "artifacts.watch_poll_ms": "artifacts.watch_poll",
    "build.delta_build_ms": "build.build_from_paths",
    "build.delta_prepare_ms": "build.prepare_lake",
    "artifacts.delta_publish_ms": "artifacts.publish",
    "artifacts.delta_pull_ms": "artifacts.pull",
}


def _layer_values(
    workload: Workload, tracer: Tracer, plain: Phase, traced: Phase, program_side: dict
) -> dict[str, float]:
    ops = max(1, traced.attempted)
    setup = tracer.layer_totals("setup")
    op = tracer.layer_totals("op")
    counters = program_side.get("counters", {})
    stages = program_side.get("stages", {})

    def per_op(span: str, key: str = "self_s") -> float:
        return op.get(span, {}).get(key, 0.0) / ops

    def setup_total(span: str) -> float:
        return 1000 * setup.get(span, {}).get("total_s", 0.0)

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span in OP_SPANS.items():
        values[metric] = 1000 * per_op(span)
    # Whatever of an operation's wall clock no shimmed layer accounts for.
    # With one caller this is the root span's self time; with several, spans
    # of the daemon's threads are charged to the operations they served.
    values["harness.op_wall_ms"] = 1000 * per_op(OP_SPAN, "total_s")
    values["engine.unattributed_ms"] = values["harness.op_wall_ms"] - sum(
        values[metric] for metric in OP_SPANS
    )
    values.update({
        "data.read_csv_calls": per_op("data.read_csv", "calls"),
        "data.csv_bytes": per_op("data.read_csv", "value"),
        "profiles.sketch_table_calls": per_op("profiles.sketch_table", "calls"),
        "index.shortlist_size": per_op("index.candidate_tables", "value"),
        "store.table_meta_rows": per_op("store.table_meta", "value"),
        "store.add_sketch_calls": per_op("store.add_sketch", "calls"),
        "prepared.get_many_rows": per_op("prepared.get_many", "value"),
        "matchers.prepare_calls": per_op("matchers.prepare", "calls"),
        "matchers.match_prepared_calls": per_op("matchers.match_prepared", "calls"),
        "index.build_ms": setup_total("index.build"),
        "harness.traced_ops": float(traced.attempted),
        "harness.generator_lag_ms": 1000 * traced.lag_s / ops,
        "harness.box_speed": machine.correction(traced.yardstick),
    })  # fmt: skip
    values.update(workload.extras)
    # Both halves in quiet-box units, or the box's mood would pass for overhead.
    untraced_p50 = percentile(plain.latencies, 0.5) * machine.correction(plain.yardstick)
    traced_p50 = percentile(traced.latencies, 0.5) * machine.correction(traced.yardstick)
    values["harness.trace_overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    # Counts the call boundary cannot see come from the program's own surfaces.
    values["prepared.bytes_read_per_query"] = counters.get("prepared_store.bytes_read", 0) / ops
    queue_wait = stages.get("rerank.queue_wait")
    if queue_wait and queue_wait["count"]:
        values["search.pool_queue_wait_ms"] = 1000 * queue_wait["total"] / queue_wait["count"]
    answered = [s for s in traced.stats if "shortlist_size" in s]
    if answered:
        shortlisted = sum(s["shortlist_size"] for s in answered)
        hits = sum(s["store_hits"] for s in answered)
        skipped = sum(s["cascade_skipped"] for s in answered)
        exact = sum(s["cascade_exact"] for s in answered)
        scored = sum(s["rerank_count"] for s in answered)
        # Pool workers resolve whole chunks before the cascade skips some of
        # them, so hits can outnumber the candidates that were scored.
        values["prepared.hit_share"] = min(1.0, hits / scored) if scored else 0.0
        values["cascade.skipped_share"] = skipped / shortlisted if shortlisted else 0.0
        values["cascade.exact_scored"] = exact / len(answered)
    values.update(workload.own_layer_values(traced, program_side))
    return values
