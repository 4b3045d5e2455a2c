"""Chaos: `lake pull` under an unreliable transport, with fixed seeds.

The acceptance bar from the ISSUE: a replica pulling through a transport
with >=30% injected failures (plus truncations and bit flips) still
converges to **byte-identical** query rankings; the pull after a crash
mid-pull fetches only the blobs the first one had not committed.  Every plan here
is seeded, so the "chaos" is exactly reproducible — these tests are
blocking, not flaky.
"""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.artifacts import (
    FaultyTransport,
    LocalTransport,
    RetryPolicy,
    publish_snapshot,
    pull_snapshot,
)
from repro.data.csv_io import write_csv
from repro.datasets import tpcdi_prospect_table
from repro.discovery.prepared import PreparedStore
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher

_METHOD = "jaccardlevenshtein"
_METHOD_KWARGS = {"sample_size": 20}
_NUM_TABLES = 5


def _fast_retry(max_attempts=8, budget=10_000):
    """A real retry policy with the clock removed (chaos at full speed)."""
    return RetryPolicy(
        max_attempts=max_attempts,
        base_delay_s=0.0,
        max_delay_s=0.0,
        budget=budget,
        sleep=lambda _s: None,
        seed=0,
    )


def _ranking_bytes(store, prepared_store, matcher, query):
    """The fully serialised ranking — byte-identical means pickle-equal."""
    with LakeDiscoveryEngine(
        matcher=matcher, store=store, prepared_store=prepared_store
    ) as engine:
        results = engine.query(query, mode="combined")
    return pickle.dumps(
        [(r.table_name, r.scores, r.matches) for r in results], protocol=4
    )


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """A publisher lake, its artifact, and the expected ranking bytes."""
    tmp_path = tmp_path_factory.mktemp("chaos_pub")
    lake_dir = tmp_path / "lake"
    lake_dir.mkdir()
    for i in range(_NUM_TABLES):
        table = tpcdi_prospect_table(num_rows=14, seed=60 + i).rename(f"t{i}")
        write_csv(table, lake_dir / f"{table.name}.csv")
    query = tpcdi_prospect_table(num_rows=14, seed=99).rename("query_table")
    matcher = create_matcher(_METHOD, **_METHOD_KWARGS)
    artifact = tmp_path / "artifact"
    store = SketchStore(tmp_path / "pub.sketches")
    build_from_paths(store, sorted(lake_dir.glob("*.csv")))
    with PreparedStore(tmp_path / "pub.prepared") as prepared_store:
        prepare_lake(store, prepared_store, matcher)
        publish_snapshot(store, artifact, prepared_store=prepared_store)
        expected = _ranking_bytes(store, prepared_store, matcher, query)
    store.close()
    return artifact, query, expected


class TestChaosTransport:
    def test_pull_converges_through_35pct_failures(self, tmp_path, published):
        """>=30% of transport reads fail, some payloads arrive torn or
        bit-flipped — the pull retries its way to a byte-identical replica."""
        artifact, query, expected = published
        plan = FaultPlan(
            [
                FaultSpec("transport.read_manifest", "error", times=1),
                FaultSpec("transport.read_blob", "error", probability=0.35),
                FaultSpec("transport.read_blob", "truncate", times=2),
                FaultSpec("transport.read_blob", "corrupt", times=2),
            ],
            seed=1,
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(tmp_path / "replica.sketches") as replica, PreparedStore(
            tmp_path / "replica.prepared"
        ) as replica_prepared:
            report = pull_snapshot(
                transport,
                replica,
                prepared_store=replica_prepared,
                retry=_fast_retry(),
            )
            assert not report.corrupt
            assert report.tables_added == _NUM_TABLES
            assert report.prepared_added == _NUM_TABLES
            # Every injected *error* cost a retry (data faults can stack —
            # one read may be both truncated and bit-flipped).
            assert report.retries >= plan.injected(kind="error")
            assert plan.injected(kind="error") > 0
            assert plan.injected(kind="truncate") + plan.injected(kind="corrupt") > 0
            actual = _ranking_bytes(
                replica,
                replica_prepared,
                create_matcher(_METHOD, **_METHOD_KWARGS),
                query,
            )
        assert actual == expected

    def test_corrupt_blob_triggers_targeted_refetch(self, tmp_path, published):
        """A digest mismatch re-fetches that one blob; it never aborts the
        pull and never commits the bad bytes."""
        artifact, _query, _expected = published
        plan = FaultPlan(
            [FaultSpec("transport.read_blob", "corrupt", times=1)], seed=4
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(tmp_path / "replica.sketches") as replica:
            report = pull_snapshot(transport, replica, retry=_fast_retry())
            assert not report.corrupt
            assert report.retries == 1  # exactly the flipped transfer
            assert report.tables_added == _NUM_TABLES
            for name in replica.table_names:
                replica.get(name)  # every committed sketch decodes

    def test_truncated_manifest_is_retried(self, tmp_path, published):
        artifact, _query, _expected = published
        plan = FaultPlan(
            [FaultSpec("transport.read_manifest", "truncate", times=1)], seed=2
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(tmp_path / "replica.sketches") as replica:
            report = pull_snapshot(transport, replica, retry=_fast_retry())
        assert report.retries >= 1
        assert report.tables_added == _NUM_TABLES

    def test_hard_down_transport_fails_in_bounded_time(self, tmp_path, published):
        """Persistent blob failure lands in ``report.corrupt`` (bounded by
        the budget) instead of aborting; a later clean pull converges."""
        artifact, _query, _expected = published
        plan = FaultPlan([FaultSpec("transport.read_blob", "error")], seed=3)
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(tmp_path / "replica.sketches") as replica:
            report = pull_snapshot(
                transport, replica, retry=_fast_retry(max_attempts=3, budget=8)
            )
            assert len(report.corrupt) == _NUM_TABLES
            assert report.retries <= 8  # the pull-wide budget held
            assert replica.table_names == []
            # The artifact heals (clean transport): the next pull converges.
            clean = pull_snapshot(artifact, replica, retry=_fast_retry())
            assert not clean.corrupt
            assert clean.tables_added == _NUM_TABLES


def _rows(store):
    """A sketch store's rows as published: (name, content hash, rows, bytes)."""
    return sorted((*key, bytes(blob)) for *key, blob in store.iter_raw())


def _publisher_rows(artifact):
    with SketchStore(artifact.parent / "pub.sketches") as publisher:
        return _rows(publisher)


class TestCrashResume:
    """A killed pull is resumed by reconciliation against the rows the store
    already committed: the next pull fetches exactly the uncommitted rest."""

    def test_crash_mid_pull_resumes_without_refetching(self, tmp_path, published):
        """Kill the pull after two committed blobs: the next pull (a new
        process, as far as the store can tell) skips exactly those two,
        fetches the other three, and the replica equals the publisher."""
        artifact, _query, _expected = published
        plan = FaultPlan(
            [FaultSpec("transport.read_blob", "crash", after=2, times=1)]
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        store_path = tmp_path / "replica.sketches"
        with SketchStore(store_path) as replica:
            with pytest.raises(InjectedCrash):
                pull_snapshot(transport, replica, retry=_fast_retry())
        # Same transport object: the crash budget is spent, reads now work.
        with SketchStore(store_path) as replica:
            assert len(replica.table_names) == 2  # committed before the crash
            report = pull_snapshot(transport, replica, retry=_fast_retry())
            assert report.blobs_skipped == 2
            assert report.blobs_fetched == _NUM_TABLES - 2
            assert report.tables_added == _NUM_TABLES - 2
            assert not report.corrupt
            assert _rows(replica) == _publisher_rows(artifact)

    def test_resume_is_voided_by_a_new_snapshot(self, tmp_path, published):
        """Progress against snapshot A must not be trusted for snapshot B:
        a row committed from A whose table B republished is fetched again."""
        artifact, _query, _expected = published
        store_path = tmp_path / "replica.sketches"
        plan = FaultPlan(
            [FaultSpec("transport.read_blob", "crash", after=1, times=1)]
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(store_path) as replica:
            with pytest.raises(InjectedCrash):
                pull_snapshot(transport, replica, retry=_fast_retry())
            assert replica.table_names == ["t0"]
        # The publisher moves on: t0 changes, the other four do not.
        lake_b = tmp_path / "lake_b"
        shutil.copytree(artifact.parent / "lake", lake_b)
        write_csv(
            tpcdi_prospect_table(num_rows=14, seed=7).rename("t0"), lake_b / "t0.csv"
        )
        artifact_b = tmp_path / "artifact_b"
        with SketchStore(tmp_path / "pub_b.sketches") as publisher:
            build_from_paths(publisher, sorted(lake_b.glob("*.csv")))
            publish_snapshot(publisher, artifact_b)
            expected_rows = _rows(publisher)
        with SketchStore(store_path) as replica:
            report = pull_snapshot(artifact_b, replica, retry=_fast_retry())
            assert report.blobs_fetched == _NUM_TABLES  # t0 again, under B's hash
            assert report.blobs_skipped == 0
            assert _rows(replica) == expected_rows

    def test_retry_on_the_same_open_store_fetches_only_the_rest(
        self, tmp_path, published
    ):
        artifact, _query, _expected = published
        store_path = tmp_path / "replica.sketches"
        plan = FaultPlan(
            [FaultSpec("transport.read_blob", "crash", after=2, times=1)]
        )
        transport = FaultyTransport(LocalTransport(artifact), plan)
        with SketchStore(store_path) as replica:
            with pytest.raises(InjectedCrash):
                pull_snapshot(transport, replica, retry=_fast_retry())
            report = pull_snapshot(transport, replica, retry=_fast_retry())
            assert report.blobs_skipped == 2
            assert report.blobs_fetched == _NUM_TABLES - 2
            assert _rows(replica) == _publisher_rows(artifact)
