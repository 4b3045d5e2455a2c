"""Tests for the MinHash LSH banding index."""

from __future__ import annotations

import random

import pytest
from matcher_support import reference_buckets, reference_candidate_tables

from repro.data.table import Column, Table
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.fabrication.pairs import NoiseVariant
from repro.fabrication.scenarios import fabricate_joinable, fabricate_unionable
from repro.lake.index import LakeIndex, LSHParams
from repro.lake.profiles import SketchConfig, sketch_table
from repro.lake.store import SketchStore


@pytest.fixture(scope="module")
def fabricated_lake():
    """Unionable/joinable pairs planted in a lake of unrelated tables."""
    seed = tpcdi_prospect_table(num_rows=120, seed=11)
    rng = random.Random(13)
    unionable = fabricate_unionable(
        seed, NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES, row_overlap=0.6, rng=rng
    )
    joinable = fabricate_joinable(
        seed, NoiseVariant.VERBATIM_SCHEMA_VERBATIM_INSTANCES, column_overlap=0.5, rng=rng
    )
    related = {
        "union_source": unionable.source.rename("union_source"),
        "union_target": unionable.target.rename("union_target"),
        "join_source": joinable.source.rename("join_source"),
        "join_target": joinable.target.rename("join_target"),
    }
    noise_rng = random.Random(29)
    unrelated = [
        Table(
            f"noise_{i}",
            [
                Column(
                    f"noise_col_{i}_{j}",
                    [f"tok{noise_rng.randrange(10_000, 99_999)}" for _ in range(40)],
                )
                for j in range(4)
            ],
        )
        for i in range(25)
    ]
    return related, unrelated


def _bucketed(index):
    """The column keys the reference banding files under a name."""
    return set().union(*reference_buckets(index)[1].values())


def _build_index(tables, config=SketchConfig(), params=LSHParams()):
    index = LakeIndex(config=config, params=params)
    for table in tables:
        index.add(sketch_table(table, config))
    return index


class TestParams:
    def test_banding_must_fit_signature(self):
        with pytest.raises(ValueError):
            LakeIndex(config=SketchConfig(num_permutations=64), params=LSHParams(bands=32, rows=4))
        with pytest.raises(ValueError):
            LSHParams(bands=0, rows=4).validate(128)

    def test_add_remove_round_trip(self, clients_table, offices_table):
        index = _build_index([clients_table, offices_table])
        assert len(index) == 2
        index.remove("offices")
        assert len(index) == 1
        assert _bucketed(index) == {("clients", name) for name in clients_table.column_names}
        sketch = sketch_table(clients_table)
        assert index.candidate_tables(sketch) == []  # only itself remains
        index.remove("clients")
        assert len(index) == 0
        assert reference_buckets(index) == ({}, {})
        # Under another name nothing hides a stale band or name bucket.
        probe = sketch_table(clients_table.rename("probe"))
        assert index.candidate_tables(probe) == reference_candidate_tables(index, probe) == []

    def test_re_adding_replaces(self, clients_table):
        index = _build_index([clients_table])
        index.add(sketch_table(clients_table))
        assert len(index) == 1
        assert _bucketed(index) == {("clients", name) for name in clients_table.column_names}
        probe = sketch_table(clients_table.rename("probe"))
        assert index.candidate_tables(probe) == reference_candidate_tables(index, probe)


class TestCandidates:
    def test_planted_pairs_are_recalled(self, fabricated_lake):
        """LSH recall >= 0.9 over planted unionable/joinable ground truth."""
        related, unrelated = fabricated_lake
        index = _build_index(list(related.values()) + unrelated)
        expected = [
            ("union_source", "union_target"),
            ("union_target", "union_source"),
            ("join_source", "join_target"),
            ("join_target", "join_source"),
        ]
        hits = 0
        for query_name, partner in expected:
            sketch = sketch_table(related[query_name])
            names = [c.table_name for c in index.candidate_tables(sketch)]
            if partner in names:
                hits += 1
        assert hits / len(expected) >= 0.9

    def test_unrelated_noise_is_pruned(self, fabricated_lake):
        related, unrelated = fabricated_lake
        index = _build_index(list(related.values()) + unrelated)
        sketch = sketch_table(related["union_source"])
        names = {c.table_name for c in index.candidate_tables(sketch)}
        noise_hits = sum(1 for name in names if name.startswith("noise_"))
        assert noise_hits <= len(unrelated) * 0.2

    def test_candidates_ranked_and_excluding_self(self, fabricated_lake):
        related, unrelated = fabricated_lake
        index = _build_index(list(related.values()) + unrelated)
        sketch = sketch_table(related["union_source"])
        candidates = index.candidate_tables(sketch, top_k=3)
        assert len(candidates) <= 3
        assert all(c.table_name != "union_source" for c in candidates)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)
        assert candidates[0].table_name == "union_target"
        best = candidates[0].best_pair
        assert best is not None and best[2] > 0.3

    def test_type_prefilter_blocks_incompatible_columns(self):
        numbers = Table("numbers", [Column("n", list(range(50)))])
        dates = Table(
            "dates", [Column("d", [f"2021-01-{i % 28 + 1:02d}" for i in range(50)])]
        )
        params = LSHParams(min_type_compatibility=0.3, min_jaccard=0.0)
        index = _build_index([dates], params=params)
        sketch = sketch_table(numbers)
        assert index.candidate_tables(sketch) == []

    def test_disjoint_partition_of_same_schema_is_still_found(self):
        """Schema evidence: unionable tables with zero value overlap."""
        part_2023 = Table(
            "events_2023",
            [
                Column("event_id", [f"a{i}" for i in range(40)]),
                Column("amount", list(range(40))),
            ],
        )
        part_2024 = Table(
            "events_2024",
            [
                Column("event_id", [f"b{i}" for i in range(40)]),
                Column("amount", list(range(1000, 1040))),
            ],
        )
        index = _build_index([part_2024])
        names = [c.table_name for c in index.candidate_tables(sketch_table(part_2023))]
        assert "events_2024" in names
        # Disabling the name channel restores pure value-overlap behaviour.
        index_values_only = _build_index(
            [part_2024], params=LSHParams(name_match_score=0.0)
        )
        values_only = index_values_only.candidate_tables(sketch_table(part_2023))
        assert "events_2024" not in {c.table_name for c in values_only}

    def test_shortlist_speaks_table_names(self, fabricated_lake):
        related, unrelated = fabricated_lake
        index = _build_index(list(related.values()) + unrelated)
        candidates = index.candidate_tables(sketch_table(related["join_source"]), top_k=4)
        names = [c.table_name for c in candidates]
        assert len(names) <= 4
        assert "join_target" in names


class TestFromStore:
    def test_from_store_equals_incremental(self, clients_table, offices_table):
        with SketchStore() as store:
            store.add_table(clients_table)
            store.add_table(offices_table)
            from_store = LakeIndex.from_store(store)
        incremental = _build_index([clients_table, offices_table])
        sketch = sketch_table(offices_table)
        assert [c.table_name for c in from_store.candidate_tables(sketch)] == [
            c.table_name for c in incremental.candidate_tables(sketch)
        ]
