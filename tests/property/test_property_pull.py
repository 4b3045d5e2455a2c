"""Property-based tests of pull-side reconciliation over real stores.

A pull compares the manifest's entry keys (``t|name|hash``) with the
replica's and fetches exactly ``remote − local``: whatever tables the
publisher and the replica hold, one pull fetches a blob per key the replica
lacks, skips every key both hold, and leaves the replica with the
publisher's rows.  The same holds when the pull reads through a seeded
lossy transport, where every fault costs a retry and never a blob.
"""

from __future__ import annotations

import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    FaultyTransport,
    LocalTransport,
    RetryPolicy,
    publish_snapshot,
    pull_snapshot,
)
from repro.datasets import tpcdi_prospect_table
from repro.faults import FaultPlan, FaultSpec
from repro.lake.profiles import sketch_table
from repro.lake.store import SketchStore

_NAMES = ("t0", "t1", "t2", "t3", "t4")
_VARIANTS = 2


@lru_cache(maxsize=None)
def _row(name: str, variant: int) -> tuple[str, bytes]:
    """``(content hash, sketch row bytes)`` of one version of table *name*."""
    seed = 10 * _NAMES.index(name) + variant
    sketch = sketch_table(tpcdi_prospect_table(num_rows=8, seed=seed).rename(name))
    return sketch.content_hash, sketch.to_bytes()


#: A lake: each table name absent or present in one of its versions.
lakes = st.dictionaries(
    st.sampled_from(_NAMES), st.integers(0, _VARIANTS - 1), max_size=len(_NAMES)
)


def _fill(store: SketchStore, lake: dict) -> set[str]:
    """Write *lake*'s rows into *store*; returns their entry keys."""
    for name, variant in lake.items():
        content_hash, data = _row(name, variant)
        store.put_raw(name, content_hash, data)
    return {f"t|{name}|{_row(name, variant)[0]}" for name, variant in lake.items()}


def _fast_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=8,
        base_delay_s=0.0,
        max_delay_s=0.0,
        budget=10_000,
        sleep=lambda _s: None,
        seed=0,
    )


def _check_pull(
    publisher_lake: dict, replica_lake: dict, plan: Optional[FaultPlan] = None
) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        artifact = work / "artifact"
        with SketchStore(work / "pub.sketches") as publisher, SketchStore(
            work / "replica.sketches"
        ) as replica:
            remote = _fill(publisher, publisher_lake)
            local = _fill(replica, replica_lake)
            publish_snapshot(publisher, artifact)
            source = LocalTransport(artifact)
            if plan is not None:
                source = FaultyTransport(source, plan)
            report = pull_snapshot(source, replica, retry=_fast_retry())
            assert not report.corrupt
            assert report.blobs_fetched == len(remote - local)
            assert report.blobs_skipped == len(remote & local)
            assert sorted(replica.raw_keys()) == sorted(publisher.raw_keys())
            if plan is not None:
                assert report.retries >= plan.injected(kind="error") >= 1


class TestPullProperties:
    @settings(max_examples=40, deadline=None)
    @given(lakes, lakes)
    def test_pull_fetches_exactly_the_missing_keys(self, publisher_lake, replica_lake):
        _check_pull(publisher_lake, replica_lake)

    @settings(max_examples=25, deadline=None)
    @given(lakes, lakes)
    def test_pull_through_a_lossy_transport_fetches_the_same(
        self, publisher_lake, replica_lake
    ):
        plan = FaultPlan(
            [
                FaultSpec("transport.read_manifest", "error", times=1),
                FaultSpec("transport.read_blob", "error", probability=0.3),
                FaultSpec("transport.read_blob", "truncate", times=1),
                FaultSpec("transport.read_blob", "corrupt", times=1),
            ],
            seed=5,
        )
        _check_pull(publisher_lake, replica_lake, plan)
