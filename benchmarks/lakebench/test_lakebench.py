"""Tests of the harness itself (seconds, collected by tier-1)."""

from __future__ import annotations

import copy
import hashlib
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from . import lakegen, report
from .trace import OP_SPAN, TracePoint, Tracer

SMALL = {
    "families": lakegen.LakeShape("families", tables=30, rows=20, groups=3, queries_per_group=2),
    "overlap": lakegen.LakeShape("overlap", tables=14, rows=20, groups=2, queries_per_group=2, cohort=4),
}


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("profile", sorted(SMALL))
def test_lakegen_is_byte_deterministic_per_seed(tmp_path, profile):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        lakegen.generate(tmp_path / name, seed, SMALL[profile])
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


@pytest.mark.parametrize("profile", sorted(SMALL))
def test_truth_names_only_tables_that_exist(tmp_path, profile):
    truth = lakegen.generate(tmp_path, 11, SMALL[profile])
    lake = {path.stem for path in (tmp_path / "lake").glob("*.csv")}
    queries = {path.stem for path in (tmp_path / "queries").glob("*.csv")}
    assert len(lake) == SMALL[profile].tables
    assert set(truth["queries"]) == queries
    assert set(truth["planted"]) <= lake
    for entry in truth["queries"].values():
        assert entry["related"] and set(entry["related"]) <= set(truth["planted"])
    assert json.loads((tmp_path / "truth.json").read_text()) == truth


def test_tail_percentile_refuses_thin_tails():
    with pytest.raises(ValueError, match="p90 needs >= 100"):
        report.tail_percentile(list(range(99)), 0.90)
    with pytest.raises(ValueError, match="p75 needs >= 40"):
        report.tail_percentile(list(range(39)), 0.75)
    assert report.tail_percentile(list(range(101)), 0.90) == pytest.approx(90.0)
    assert report.tail_percentile(list(range(41)), 0.75) == pytest.approx(30.0)
    assert report.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_shims_restore_every_patched_attribute():
    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls):
            return cls()

        def items(self):
            yield from (1, 2, 3)

    module = types.ModuleType("fake")
    module.function = lambda: "f"
    before = {
        (Thing, "method"): vars(Thing)["method"],
        (Thing, "build"): vars(Thing)["build"],
        (Thing, "items"): vars(Thing)["items"],
        (module, "function"): module.function,
    }
    points = [TracePoint(f"layer.{attr}", owner, attr) for owner, attr in before]
    points.append(TracePoint("layer.inherited", Thing, "inherited"))
    tracer = Tracer()
    with tracer.installed(points, "op"):
        assert all(vars(owner)[attr] is not original for (owner, attr), original in before.items())
        with tracer.operation(0):
            thing = Thing.build()
            assert thing.method(1) == 2 and list(thing.items()) == [1, 2, 3]
            assert thing.inherited() == "base" and module.function() == "f"
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original
    assert "inherited" not in vars(Thing)
    totals = tracer.layer_totals("op")
    assert {name: entry["calls"] for name, entry in totals.items()} == {
        OP_SPAN: 1, "layer.build": 1, "layer.method": 1, "layer.items": 1,
        "layer.inherited": 1, "layer.function": 1,
    }  # fmt: skip
    # Self times partition the operation: nothing is counted twice or lost.
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(totals[OP_SPAN]["total_s"])
    assert len(tracer.chrome_trace()["traceEvents"]) == 6


def test_shims_restore_the_program_under_test():
    try:
        from . import adapter
    except ImportError as exc:
        pytest.skip(f"program under test not importable: {exc}")
    points = adapter.trace_points(["SemProp", "Cupid"])
    assert len({(id(p.owner), p.attr) for p in points}) == len(points)
    missing = object()
    before = [vars(p.owner).get(p.attr, missing) for p in points]
    tracer = Tracer()
    tracer.install(points)
    assert all(vars(p.owner)[p.attr] is not original for p, original in zip(points, before))
    tracer.restore()
    after = [vars(p.owner).get(p.attr, missing) for p in points]
    assert all(now is original for now, original in zip(after, before))


def _results(p50: float, failed: int = 0, spread: float = 0.01) -> dict:
    metrics = {
        name: {"median": 10.0, "spread": spread, "n": 3} for name, *_ in report.END_TO_END
    }
    metrics["op_p50_ms"] = {"median": p50, "spread": spread, "n": 3}
    return {"workloads": {"warm_store": {"attempted": 100, "failed": failed, "metrics": metrics}}}


def _verdicts(lines: list[str]) -> dict[str, str]:
    rows = (re.match(r"\S+\s+(\S+) .*%\s+(\w+) \(", line) for line in lines[1:])
    return {row.group(1): row.group(2) for row in rows if row}


def test_compare_flags_a_regression_and_passes_an_identical_pair():
    base = _results(100.0)
    lines, ok = report.compare(base, copy.deepcopy(base))
    assert ok and set(_verdicts(lines).values()) == {"same"}
    assert len(_verdicts(lines)) == len(report.END_TO_END) + 1
    lines, ok = report.compare(base, _results(130.0))  # beyond the 20 % bound
    assert not ok and _verdicts(lines)["op_p50_ms"] == "worse"
    assert "1.300x" in next(line for line in lines if "op_p50_ms" in line)
    lines, ok = report.compare(base, _results(110.0))  # within it
    assert ok and _verdicts(lines)["op_p50_ms"] == "same"
    lines, ok = report.compare(base, _results(70.0))
    assert ok and _verdicts(lines)["op_p50_ms"] == "better"
    # A spread wider than the bound cannot resolve the same move either way.
    lines, ok = report.compare(_results(100.0, spread=0.3), _results(130.0))
    assert ok and _verdicts(lines)["op_p50_ms"] == "unresolved"
    # More failed operations is a regression whatever the timings say.
    lines, ok = report.compare(base, _results(100.0, failed=1))
    assert not ok and _verdicts(lines)["failed_share"] == "worse"


def test_benchmark_json_matches_the_registry_and_the_contract():
    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert declared == report.manifest()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in declared["end_to_end"]


def test_no_process_outlives_the_reaper():
    # In a child: becoming a subreaper is for life, and pytest should not.
    script = """
import os, subprocess, sys
sys.path.insert(0, sys.argv[1])
from lakebench import workloads
workloads.adopt_orphans()
daemon = subprocess.Popen(["sh", "-c", "sleep 60 & sleep 60 & exit 0"], start_new_session=True)
bystander = subprocess.Popen(["sleep", "60"])
daemon.wait()  # its two sleeps are orphans now, and this process's to reap
workloads.reap_descendants(session=daemon.pid)
assert workloads._tree(os.getpid())[1:] == [bystander.pid]
workloads.reap_descendants()
assert workloads._tree(os.getpid())[1:] == []
"""
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", script, str(here.parent)], capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
