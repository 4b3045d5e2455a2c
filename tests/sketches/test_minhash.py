"""Tests for MinHash signatures: the batched kernel, fed by
``matcher_support.batch_minhash``, against the scalar oracle."""

from __future__ import annotations

import numpy as np
import pytest
from matcher_support import batch_minhash

from repro.sketches.minhash import (
    hash_normalized,
    jaccard_matrix,
    minhash_signatures_from_hashes,
    minhash_signatures_scalar,
)
from repro.text.distance import jaccard_similarity


def _estimate(a, b, **kwargs) -> float:
    """Estimated Jaccard of two value collections, sketched in one batch."""
    signatures, _ = batch_minhash([a, b], **kwargs)
    return float(jaccard_matrix(signatures[:1], signatures[1:])[0, 0])


def _single(values, **kwargs) -> np.ndarray:
    """The signature of one value collection: a row of a one-set batch."""
    return batch_minhash([values], **kwargs)[0][0]


class TestMinHashSignature:
    def test_identical_sets_estimate_one(self):
        values = [f"value_{i}" for i in range(100)]
        assert _estimate(values, list(values)) == pytest.approx(1.0)

    def test_disjoint_sets_estimate_near_zero(self):
        a = [f"a_{i}" for i in range(100)]
        b = [f"b_{i}" for i in range(100)]
        assert _estimate(a, b) <= 0.05

    def test_estimate_tracks_true_jaccard(self):
        a = [f"v_{i}" for i in range(200)]
        b = [f"v_{i}" for i in range(100, 300)]
        truth = jaccard_similarity(a, b)
        estimate = _estimate(a, b, num_permutations=256)
        assert estimate == pytest.approx(truth, abs=0.1)

    def test_deterministic_given_seed(self):
        values = ["x", "y", "z"]
        assert _single(values).tolist() == _single(values).tolist()

    def test_case_and_whitespace_normalised(self):
        assert _single(["Apple "]).tolist() == _single(["apple"]).tolist()

    def test_empty_set_signature(self):
        signatures, set_sizes = batch_minhash([[], ["a"]], num_permutations=16)
        assert set_sizes.tolist() == [0, 1]
        assert signatures[0].tolist() == [2**32 - 1] * 16
        assert 0.0 <= jaccard_matrix(signatures[:1], signatures[1:])[0, 0] <= 1.0

    def test_mismatched_permutations_rejected(self):
        a, _ = batch_minhash([["x"]], num_permutations=16)
        b, _ = batch_minhash([["x"]], num_permutations=32)
        with pytest.raises(ValueError):
            jaccard_matrix(a, b)

    def test_invalid_permutation_count(self):
        with pytest.raises(ValueError):
            batch_minhash([["x"]], num_permutations=0)


class TestBatchSignatures:
    def test_batch_equals_per_column(self):
        columns = [
            [f"v_{i}" for i in range(80)],
            [],
            [f"v_{i}" for i in range(40, 120)],
            [1, 2, 3, "Apple ", "apple"],
            ["only"],
        ]
        batch, set_sizes = batch_minhash(columns, num_permutations=64, seed=11)
        assert batch.dtype == np.uint32 and batch.shape == (5, 64)
        assert set_sizes.tolist() == [80, 0, 80, 4, 1]
        for row, column in zip(batch, columns):
            assert row.tolist() == _single(column, num_permutations=64, seed=11).tolist()

    def test_batch_chunks_large_inputs(self, monkeypatch):
        """Force tiny chunks so several flushes happen within one call."""
        import repro.sketches.minhash as module

        monkeypatch.setattr(module, "_BATCH_CELL_BUDGET", 64)
        columns = [[f"c{i}_{j}" for j in range(10)] for i in range(9)]
        batch, _ = batch_minhash(columns, num_permutations=16)
        monkeypatch.undo()
        for row, column in zip(batch, columns):
            assert row.tolist() == _single(column, num_permutations=16).tolist()

    def test_signatures_do_not_depend_on_the_budget(self, monkeypatch):
        """The cache-sized budget (512 values of a 128-wide signature per
        chunk) gives the bits every other budget gives, for columns that
        share a chunk and for ones longer than a chunk."""
        import repro.sketches.minhash as module

        assert module._BATCH_CELL_BUDGET == 65_536
        sizes = (0, 3, 700, 1, 512, 513, 2_000, 40)
        hashes = [hash_normalized([f"v{i}_{j}" for j in range(n)])[1] for i, n in enumerate(sizes)]
        runs = []
        for budget in (4_000_000, 262_144, 65_536, 16_384):
            monkeypatch.setattr(module, "_BATCH_CELL_BUDGET", budget)
            runs.append(minhash_signatures_from_hashes(hashes, num_permutations=128))
        for signatures, set_sizes in runs:
            assert set_sizes.tolist() == list(sizes)
            assert np.array_equal(signatures, runs[0][0])
        scalar, _ = minhash_signatures_scalar([[f"v6_{j}" for j in range(2_000)]])
        assert np.array_equal(runs[2][0][6:7], scalar)

    def test_matches_independent_reference_implementation(self):
        """Guard the vectorised core against regressions with plain-int math.

        A batch of one set runs the same code as a larger batch, so
        batch-vs-single comparisons alone cannot catch a bug in it.
        """
        import repro.sketches.minhash as module

        values = [f"v_{i}" for i in range(30)] + [1, 2.5, " Mixed Case "]
        num_permutations, seed = 32, 11
        a, b = module._permutation_parameters(num_permutations, seed)
        distinct = {str(v).strip().lower() for v in values}
        hashes = [module._stable_hash(v) for v in distinct]
        expected = [
            min(
                ((int(a[k]) * h + int(b[k])) % module._MERSENNE_PRIME)
                & module._MAX_HASH
                for h in hashes
            )
            for k in range(num_permutations)
        ]
        signatures, set_sizes = batch_minhash(
            [values], num_permutations=num_permutations, seed=seed
        )
        assert signatures[0].tolist() == expected
        assert set_sizes.tolist() == [len(distinct)]

    def test_batch_rejects_invalid_permutations(self):
        with pytest.raises(ValueError):
            batch_minhash([["x"]], num_permutations=0)

    def test_empty_batch(self):
        signatures, set_sizes = batch_minhash([])
        assert signatures.shape == (0, 0) and signatures.dtype == np.uint32
        assert set_sizes.shape == (0,)


class TestVectorizedVsScalar:
    """The NumPy batch path must be bit-identical to the pure-Python oracle."""

    CASES = [
        [],
        ["a", "b", "c"],
        ["A ", " b", "c", "c"],  # normalisation collapses duplicates
        [1, 2, 3, None, "x" * 80],
        [f"val{i}" for i in range(500)],
        ["ünïcode", "日本語", ""],
    ]

    @staticmethod
    def _assert_identical(vectorized, scalar) -> None:
        for got, expected in zip(vectorized, scalar):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tolist() == expected.tolist()

    def test_signatures_identical(self):
        from repro.sketches.minhash import minhash_signatures_scalar

        for num_permutations, seed in ((16, 7), (128, 7), (64, 99)):
            vectorized = batch_minhash(
                self.CASES, num_permutations=num_permutations, seed=seed
            )
            scalar = minhash_signatures_scalar(
                self.CASES, num_permutations=num_permutations, seed=seed
            )
            self._assert_identical(vectorized, scalar)
        self._assert_identical(batch_minhash([]), minhash_signatures_scalar([]))

    def test_signatures_identical_across_chunk_boundaries(self, monkeypatch):
        import repro.sketches.minhash as module
        from repro.sketches.minhash import minhash_signatures_scalar

        monkeypatch.setattr(module, "_BATCH_CELL_BUDGET", 48)
        columns = [[f"c{i}_{j}" for j in range(11)] for i in range(7)]
        self._assert_identical(
            batch_minhash(columns, num_permutations=16),
            minhash_signatures_scalar(columns, num_permutations=16),
        )

    def test_hash_normalized_values_matches_stable_hash(self):
        import repro.sketches.minhash as module
        from repro.sketches.minhash import hash_normalized_values

        values = ["alpha", "beta", "", "日本語", "x" * 200]
        array = hash_normalized_values(values)
        assert array.dtype == np.uint64
        assert array.tolist() == [module._stable_hash(v) for v in values]
        assert hash_normalized_values([]).size == 0

    def test_scalar_rejects_invalid_permutations(self):
        from repro.sketches.minhash import minhash_signatures_scalar

        with pytest.raises(ValueError):
            minhash_signatures_scalar([["x"]], num_permutations=0)


class TestJaccardMatrix:
    def test_matrix_equals_pairwise_jaccard(self):
        columns_a = [[f"v_{i}" for i in range(40)], ["x", "y"], []]
        columns_b = [[f"v_{i}" for i in range(20, 60)], ["y", "z"], ["q"]]
        signatures_a, _ = batch_minhash(columns_a, num_permutations=64)
        signatures_b, _ = batch_minhash(columns_b, num_permutations=64)
        matrix = jaccard_matrix(signatures_a, signatures_b)
        assert matrix.shape == (3, 3)
        for i, row_a in enumerate(signatures_a.tolist()):
            for j, row_b in enumerate(signatures_b.tolist()):
                assert matrix[i, j] == sum(x == y for x, y in zip(row_a, row_b)) / 64

    def test_empty_sides(self):
        signatures, _ = batch_minhash([["a"]], num_permutations=16)
        nothing, _ = batch_minhash([], num_permutations=16)
        assert jaccard_matrix(nothing, signatures).shape == (0, 1)
        assert jaccard_matrix(signatures, nothing).shape == (1, 0)

    def test_mismatched_permutations_rejected(self):
        a, _ = batch_minhash([["x"]], num_permutations=16)
        b, _ = batch_minhash([["x"]], num_permutations=32)
        with pytest.raises(ValueError):
            jaccard_matrix(a, b)


class TestSignaturePickling:
    def test_pickle_round_trip(self):
        """What a parallel lake build's workers send back: a table sketch
        whose signatures are one matrix, pickled as its fields only."""
        import pickle

        from repro.data.table import Table
        from repro.lake.profiles import sketch_table

        sketch = sketch_table(Table("t", {"a": ["x", "y"], "b": [1, 2]}))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone == sketch
        assert set(clone.__dict__) == {
            "name", "content_hash", "num_rows", "column_names", "types",
            "signatures", "histograms", "counts", "stats", "present",
        }  # fmt: skip
        assert clone.signatures.dtype == np.uint32 and clone.signatures.shape == (2, 128)
