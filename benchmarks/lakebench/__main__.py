"""``python -m benchmarks.lakebench run|trace|compare`` and the single-run mode."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / "_work"
RESULTS = HERE / "results"


# ---------------------------------------------------------------------- #
# one run (the BENCHMARK.json contract)
# ---------------------------------------------------------------------- #
def single(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="lakebench", description="run one workload once")
    parser.add_argument("--workload", required=True, choices=list(report.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=report.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="write the spans as Chrome-trace JSON")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and the cost of a Cupid match
        # swings by 1.8x with the salt (set iteration order): pin it, for
        # this process and every daemon it starts, or no two runs compare.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"), *argv])
    try:
        from . import adapter
    except ImportError as exc:
        print(f"lakebench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from . import workloads

    # From here on every process started below this one, however deep, is
    # this one's to stop and wait for before it exits.
    workloads.adopt_orphans()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    config = workloads.Config(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.trace_out
    )
    try:
        result = workloads.run(config, adapter)
    finally:
        workloads.reap_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
    raw = result.pop("raw", None)  # the result object has exactly four keys
    print(report.format_metrics(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} operations, {result['failed']} failed",
        result["metrics"],
    ))  # fmt: skip
    if raw is not None:
        print("  as the clock read them, before the yardstick correction:")
        print("  " + "  ".join(f"{name}={value:.4f}" for name, value in raw.items()))
    if not result["correct"]:
        print("lakebench: WRONG ANSWERS: at least one operation failed its check", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# run / trace: fresh processes, summarised
# ---------------------------------------------------------------------- #
def _launch(workload: str, seed: int, seconds: float, trace: int, extra: Sequence[str] = ()) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"lakebench: {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )  # fmt: skip
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _meta(args: argparse.Namespace, traced: bool) -> dict:
    import numpy

    from . import workloads

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "runs_per_workload": args.runs,
        "setup_repeats": workloads.SETUP_REPEATS,
        "lakes": {name: cls.shape.as_dict() for name, cls in workloads.WORKLOADS.items()},
    }


def _collect(args: argparse.Namespace, trace: int) -> dict:
    RESULTS.mkdir(exist_ok=True)
    payload = {"meta": _meta(args, bool(trace)), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for attempt in range(args.runs):
            extra = []
            if trace and attempt == 0:
                extra = ["--trace-out", str(RESULTS / f"trace-{workload}-seed{args.seed}.json")]
            runs.append(_launch(workload, args.seed, args.seconds, trace, extra))
        metrics = report.summarise(
            {name: entry["value"] for name, entry in run["metrics"].items()} for run in runs
        )
        payload["workloads"][workload] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
        print(report.format_metrics(
            f"\n{workload}: {report.WORKLOADS[workload]}\n"
            f"  {payload['workloads'][workload]['attempted']} operations attempted, "
            f"{payload['workloads'][workload]['failed']} failed, {args.runs} run(s)",
            metrics,
        ))  # fmt: skip
    return payload


def _run(args: argparse.Namespace) -> int:
    report.dump_json(report.manifest(), ROOT / "BENCHMARK.json")
    payload = _collect(args, trace=0)
    out = args.out or RESULTS / f"run-seed{args.seed}.json"
    report.dump_json(payload, out)
    print(f"\nresults written to {out}; BENCHMARK.json declares the metrics")
    return 0


def _trace(args: argparse.Namespace) -> int:
    from .workloads import OP_SPANS

    payload = _collect(args, trace=1)
    print()
    for workload, entry in payload["workloads"].items():
        metrics = entry["metrics"]
        wall = metrics["harness.op_wall_ms"]["median"]
        layers = sum(metrics[name]["median"] for name in OP_SPANS)
        unattributed = metrics["engine.unattributed_ms"]["median"]
        print(
            f"{workload}: layers {layers:.2f} ms + unattributed {unattributed:.2f} ms = "
            f"{100 * (layers + unattributed) / wall:.1f} % of the {wall:.2f} ms operation wall "
            f"(unattributed {100 * unattributed / wall:.1f} %)"
        )
    out = args.out or RESULTS / f"trace-seed{args.seed}.json"
    report.dump_json(payload, out)
    print(f"per-layer results written to {out}; Chrome traces next to it")
    return 0


def _compare(args: argparse.Namespace) -> int:
    base, new = (json.loads(path.read_text(encoding="utf-8")) for path in (args.base, args.new))
    lines, ok = report.compare(base, new)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("--"):
        return single(argv)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.lakebench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _run), ("trace", _trace)):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--seconds", type=float, default=report.RUN_SECONDS)
        sub.add_argument("--runs", type=int, default=3 if name == "run" else 1,
                         help="fresh processes per workload (spread needs >= 2)")
        sub.add_argument("--workloads", nargs="+", default=list(report.WORKLOADS),
                         choices=list(report.WORKLOADS))
        sub.add_argument("--out", type=Path)
        sub.set_defaults(handler=handler)
    sub = commands.add_parser("compare")
    sub.add_argument("base", type=Path)
    sub.add_argument("new", type=Path)
    sub.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
