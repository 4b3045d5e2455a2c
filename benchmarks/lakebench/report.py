"""Metric registry, order statistics, result tables and ``compare``.

Program-agnostic: nothing here knows what is being measured, only how the
numbers are named, bounded, summarised and compared.
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "manifest",
    "percentile",
    "tail_percentile",
    "spread",
    "summarise",
    "format_metrics",
    "compare",
]

#: Seconds one run measures; the driver passes it back as ``--seconds``.
RUN_SECONDS = 12

#: name -> why the workload exists (one line; the long form is in README.md).
WORKLOADS: dict[str, str] = {
    "warm_store": "warm SemProp query: prepared-store read+decode carries it, the matcher is cheap; storage changes must move it, matcher changes must not",
    "cold_matcher": "no prepared store, Cupid: CSV read + prepare + match do all the work; bypasses the stores, exercises reader and matcher kernels",
    "served": "lake serve --cascade as a subprocess under closed-loop clients: protocol, admission, batching, pool and stage-1 pricing are on the path, the matcher mostly skipped",
    "ingest_sync": "write side: build, prepare, publish, pull, then edit->watch->republish->pull cycles; where cheaper reads show up as dearer writes, syncs or bytes",
}

#: (name, unit, better, bound) — reported by every workload in an untraced run.
#: An *operation* is one query, except on ``ingest_sync`` where it is one
#: delta cycle (rewrite CSVs -> watch poll with republish -> replica pull).
#: Times are yardstick-corrected (machine.py): quiet-box seconds.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p75_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("first_query_ms", "ms", "lower", 0.25),
    ("recall_at_k", "share", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("store_bytes_per_csv_byte", "ratio", "lower", 0.02),
]

#: (name, unit, better) — reported by every workload in a traced run.  ``_ms``
#: values are mean self time per operation of the traced timed phase unless
#: the README marks them *set-up totals*; ``0`` means the layer is not on the
#: workload's path, ``-1`` that the daemon no longer exposes the counter.
PER_LAYER: list[tuple[str, str, str]] = [
    ("data.read_csv_ms", "ms", "lower"),
    ("data.read_csv_calls", "count", "lower"),
    ("data.csv_bytes", "bytes", "lower"),
    ("profiles.sketch_table_ms", "ms", "lower"),
    ("profiles.sketch_table_calls", "count", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.candidate_tables_ms", "ms", "lower"),
    ("index.shortlist_size", "count", "lower"),
    ("store.table_meta_ms", "ms", "lower"),
    ("store.table_meta_rows", "count", "lower"),
    ("store.iter_ms", "ms", "lower"),
    ("store.add_sketch_ms", "ms", "lower"),
    ("store.add_sketch_calls", "count", "lower"),
    ("store.file_bytes", "bytes", "lower"),
    ("prepared.get_many_ms", "ms", "lower"),
    ("prepared.get_many_rows", "count", "lower"),
    ("prepared.bytes_read_per_query", "bytes", "lower"),
    ("prepared.hit_share", "share", "higher"),
    ("prepared.put_ms", "ms", "lower"),
    ("prepared.file_bytes", "bytes", "lower"),
    ("matchers.prepare_ms", "ms", "lower"),
    ("matchers.prepare_calls", "count", "lower"),
    ("matchers.match_prepared_ms", "ms", "lower"),
    ("matchers.match_prepared_calls", "count", "lower"),
    ("matchers.score_bound_ms", "ms", "lower"),
    ("cascade.candidate_signals_ms", "ms", "lower"),
    ("cascade.skipped_share", "share", "higher"),
    ("cascade.exact_scored", "count", "lower"),
    ("search.rerank_self_ms", "ms", "lower"),
    ("search.pool_spawn_ms", "ms", "lower"),
    ("search.pool_queue_wait_ms", "ms", "lower"),
    ("engine.open_ms", "ms", "lower"),
    ("engine.query_self_ms", "ms", "lower"),
    ("engine.unattributed_ms", "ms", "lower"),
    ("serve.ready_ms", "ms", "lower"),
    ("serve.client_encode_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.batch_size", "count", "higher"),
    ("serve.coalesced_share", "share", "higher"),
    ("serve.rejected_429", "count", "lower"),
    ("serve.expired_504", "count", "lower"),
    ("serve.pool_restarts", "count", "lower"),
    ("build.build_from_paths_ms", "ms", "lower"),
    ("build.prepare_lake_ms", "ms", "lower"),
    ("build.ingest_tables_per_s", "1/s", "higher"),
    ("build.prepare_tables_per_s", "1/s", "higher"),
    ("build.parallel_speedup", "ratio", "higher"),
    ("build.delta_build_ms", "ms", "lower"),
    ("build.delta_prepare_ms", "ms", "lower"),
    ("artifacts.publish_ms", "ms", "lower"),
    ("artifacts.publish_bytes", "bytes", "lower"),
    ("artifacts.pull_full_ms", "ms", "lower"),
    ("artifacts.pull_bytes", "bytes", "lower"),
    ("artifacts.pull_blobs", "count", "lower"),
    ("artifacts.sync_tables_per_s", "1/s", "higher"),
    ("artifacts.delta_bytes_share", "share", "lower"),
    ("artifacts.iblt_decode_ok_share", "share", "higher"),
    ("artifacts.watch_poll_ms", "ms", "lower"),
    ("artifacts.delta_publish_ms", "ms", "lower"),
    ("artifacts.delta_pull_ms", "ms", "lower"),
    ("artifacts.retries", "count", "lower"),
    ("harness.op_wall_ms", "ms", "lower"),
    ("harness.traced_ops", "count", "higher"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.box_speed", "ratio", "higher"),
    ("harness.generator_lag_ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` declaration, derived from the registry above."""
    return {
        "command": ["python3", "benchmarks/lakebench/run.py"],
        "paths": ["benchmarks/lakebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------- #
# order statistics
# ---------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile *q* in [0, 1] of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """Percentile *q*, refused unless at least ten samples lie beyond it.

    p90 needs n >= 100 and p75 needs n >= 40: a tail read off fewer samples
    is the maximum in disguise.  The workloads keep measuring until they
    have enough for the percentile they report.
    """
    beyond = len(samples) * (1.0 - q)
    if beyond < 10.0 - 1e-9:
        raise ValueError(
            f"p{round(q * 100)} needs >= {round(10 / (1 - q))} samples, got {len(samples)}"
        )
    return percentile(samples, q)


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for n < 2).

    With fewer than four samples the quartiles are undefined and the full
    range stands in, which only over-states the spread.
    """
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    if median == 0:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(median)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


def summarise(runs: Iterable[Mapping[str, float]]) -> dict[str, dict]:
    """Fold per-run metric dicts into ``{name: {median, spread, n, samples}}``."""
    samples: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run.items():
            samples.setdefault(name, []).append(value)
    return {
        name: {
            "median": statistics.median(values),
            "spread": spread(values),
            "n": len(values),
            "samples": values,
            "unit": UNITS.get(name, ""),
        }
        for name, values in samples.items()
    }


def format_metrics(title: str, metrics: Mapping[str, Mapping]) -> str:
    """A name / value / unit table; *metrics* values carry ``value`` or ``median``."""
    lines = [title]
    width = max((len(name) for name in metrics), default=0)
    for name, entry in metrics.items():
        value = entry.get("value", entry.get("median"))
        extra = ""
        if "n" in entry:
            extra = f"   (n={entry['n']}, spread {100 * entry['spread']:.1f} %)"
        lines.append(f"  {name:<{width}}  {value:>14.4f} {entry.get('unit', ''):<6}{extra}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #
def _verdict(
    base: Mapping, new: Mapping, better: str, bound: float
) -> tuple[str, float]:
    a, b = base["median"], new["median"]
    ratio = b / a if a else float("inf")
    worse_by = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if a == 0:
        worse_by = 0.0 if b == 0 else float("inf")
    if max(base.get("spread", 0.0), new.get("spread", 0.0)) > max(bound, 1e-12):
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "same", ratio


def compare(base: Mapping, new: Mapping) -> tuple[list[str], bool]:
    """One row per workload x end-to-end metric; returns (lines, ok).

    ``ok`` is False on any ``worse`` verdict or any rise in the share of
    failed operations.  Ratios are printed as ``new/base`` with the base
    value next to them, because a ratio without its base says nothing.
    """
    lines = [
        f"{'workload':<13} {'metric':<25} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>6}  verdict"
    ]
    ok = True
    for workload in base["workloads"]:
        old_side = base["workloads"][workload]
        new_side = new["workloads"].get(workload)
        if new_side is None:
            lines.append(f"{workload:<13} missing from the new results: worse")
            ok = False
            continue
        for name, unit, better, bound in END_TO_END:
            if name not in old_side["metrics"] or name not in new_side["metrics"]:
                continue
            a, b = old_side["metrics"][name], new_side["metrics"][name]
            verdict, ratio = _verdict(a, b, better, bound)
            ok = ok and verdict != "worse"
            lines.append(
                f"{workload:<13} {name:<25} {a['median']:>12.4f} {b['median']:>12.4f} "
                f"{ratio:>8.3f}x {100 * bound:>5.0f}%  {verdict} ({unit}, {better} is better)"
            )
        old_failed = old_side["failed"] / max(1, old_side["attempted"])
        new_failed = new_side["failed"] / max(1, new_side["attempted"])
        verdict = "worse" if new_failed > old_failed else "same"
        ok = ok and verdict != "worse"
        lines.append(
            f"{workload:<13} {'failed_share':<25} {old_failed:>12.4f} {new_failed:>12.4f} "
            f"{'':>9} {0:>5.0f}%  {verdict} (share, lower is better)"
        )
    return lines, ok


def dump_json(payload: Mapping, path, indent: Optional[int] = 2) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent)
        handle.write("\n")
