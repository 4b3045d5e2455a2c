"""Tests for MinHash signatures."""

from __future__ import annotations

import pytest

from repro.sketches.minhash import (
    MinHashSignature,
    estimate_jaccard,
    minhash_signature,
    minhash_signatures,
)
from repro.text.distance import jaccard_similarity


class TestMinHashSignature:
    def test_identical_sets_estimate_one(self):
        values = [f"value_{i}" for i in range(100)]
        assert estimate_jaccard(values, list(values)) == pytest.approx(1.0)

    def test_disjoint_sets_estimate_near_zero(self):
        a = [f"a_{i}" for i in range(100)]
        b = [f"b_{i}" for i in range(100)]
        assert estimate_jaccard(a, b) <= 0.05

    def test_estimate_tracks_true_jaccard(self):
        a = [f"v_{i}" for i in range(200)]
        b = [f"v_{i}" for i in range(100, 300)]
        truth = jaccard_similarity(a, b)
        estimate = estimate_jaccard(a, b, num_permutations=256)
        assert estimate == pytest.approx(truth, abs=0.1)

    def test_deterministic_given_seed(self):
        values = ["x", "y", "z"]
        assert minhash_signature(values).values == minhash_signature(values).values

    def test_case_and_whitespace_normalised(self):
        assert minhash_signature(["Apple "]).values == minhash_signature(["apple"]).values

    def test_empty_set_signature(self):
        signature = minhash_signature([])
        assert signature.set_size == 0
        other = minhash_signature(["a"])
        assert signature.jaccard(other) <= 1.0

    def test_mismatched_permutations_rejected(self):
        a = minhash_signature(["x"], num_permutations=16)
        b = minhash_signature(["x"], num_permutations=32)
        with pytest.raises(ValueError):
            a.jaccard(b)

    def test_invalid_permutation_count(self):
        with pytest.raises(ValueError):
            minhash_signature(["x"], num_permutations=0)

    def test_containment_of_subset(self):
        small = [f"v_{i}" for i in range(50)]
        large = [f"v_{i}" for i in range(200)]
        signature_small = minhash_signature(small, num_permutations=256)
        signature_large = minhash_signature(large, num_permutations=256)
        assert signature_small.containment(signature_large) >= 0.7


class TestBatchSignatures:
    def test_batch_equals_per_column(self):
        columns = [
            [f"v_{i}" for i in range(80)],
            [],
            [f"v_{i}" for i in range(40, 120)],
            [1, 2, 3, "Apple ", "apple"],
            ["only"],
        ]
        batch = minhash_signatures(columns, num_permutations=64, seed=11)
        singles = [
            minhash_signature(column, num_permutations=64, seed=11)
            for column in columns
        ]
        assert batch == singles

    def test_batch_chunks_large_inputs(self, monkeypatch):
        """Force tiny chunks so several flushes happen within one call."""
        import repro.sketches.minhash as module

        monkeypatch.setattr(module, "_BATCH_CELL_BUDGET", 64)
        columns = [[f"c{i}_{j}" for j in range(10)] for i in range(9)]
        batch = minhash_signatures(columns, num_permutations=16)
        singles = [minhash_signature(column, num_permutations=16) for column in columns]
        assert batch == singles

    def test_matches_independent_reference_implementation(self):
        """Guard the vectorised core against regressions with plain-int math.

        ``minhash_signature`` delegates to the batch path, so batch-vs-single
        comparisons alone cannot catch a bug in the shared implementation.
        """
        import repro.sketches.minhash as module

        values = [f"v_{i}" for i in range(30)] + [1, 2.5, " Mixed Case "]
        num_permutations, seed = 32, 11
        a, b = module._permutation_parameters(num_permutations, seed)
        distinct = {str(v).strip().lower() for v in values}
        hashes = [module._stable_hash(v) for v in distinct]
        expected = tuple(
            min(
                ((int(a[k]) * h + int(b[k])) % module._MERSENNE_PRIME)
                & module._MAX_HASH
                for h in hashes
            )
            for k in range(num_permutations)
        )
        signature = minhash_signature(
            values, num_permutations=num_permutations, seed=seed
        )
        assert signature.values == expected
        assert signature.set_size == len(distinct)

    def test_batch_rejects_invalid_permutations(self):
        with pytest.raises(ValueError):
            minhash_signatures([["x"]], num_permutations=0)

    def test_empty_batch(self):
        assert minhash_signatures([]) == []


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

    def test_signatures_identical(self):
        from repro.sketches.minhash import minhash_signatures_scalar

        for num_permutations, seed in ((16, 7), (128, 7), (64, 99)):
            vectorized = minhash_signatures(
                self.CASES, num_permutations=num_permutations, seed=seed
            )
            scalar = minhash_signatures_scalar(
                self.CASES, num_permutations=num_permutations, seed=seed
            )
            assert vectorized == scalar

    def test_signatures_identical_across_chunk_boundaries(self, monkeypatch):
        import repro.sketches.minhash as module
        from repro.sketches.minhash import minhash_signatures_scalar

        monkeypatch.setattr(module, "_BATCH_CELL_BUDGET", 48)
        columns = [[f"c{i}_{j}" for j in range(11)] for i in range(7)]
        assert minhash_signatures(columns, num_permutations=16) == (
            minhash_signatures_scalar(columns, num_permutations=16)
        )

    def test_hash_normalized_values_matches_stable_hash(self):
        import numpy as np

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
        from repro.sketches.minhash import jaccard_matrix, signature_matrix

        columns_a = [[f"v_{i}" for i in range(40)], ["x", "y"], []]
        columns_b = [[f"v_{i}" for i in range(20, 60)], ["y", "z"], ["q"]]
        signatures_a = minhash_signatures(columns_a, num_permutations=64)
        signatures_b = minhash_signatures(columns_b, num_permutations=64)
        matrix = jaccard_matrix(signature_matrix(signatures_a), signature_matrix(signatures_b))
        assert matrix.shape == (3, 3)
        for i, signature_a in enumerate(signatures_a):
            for j, signature_b in enumerate(signatures_b):
                assert matrix[i, j] == signature_a.jaccard(signature_b)

    def test_empty_sides(self):
        from repro.sketches.minhash import jaccard_matrix, signature_matrix

        signatures = signature_matrix(minhash_signatures([["a"]], num_permutations=16))
        assert jaccard_matrix(signature_matrix([]), signatures).shape == (0, 1)
        assert jaccard_matrix(signatures, signature_matrix([])).shape == (1, 0)

    def test_mismatched_permutations_rejected(self):
        from repro.sketches.minhash import jaccard_matrix, signature_matrix

        a = minhash_signature(["x"], num_permutations=16)
        b = minhash_signature(["x"], num_permutations=32)
        with pytest.raises(ValueError):
            jaccard_matrix(signature_matrix([a]), signature_matrix([b]))
        with pytest.raises(ValueError):
            signature_matrix([a, b])


class TestSignaturePickling:
    def test_pickle_round_trip_drops_vector_cache(self):
        import pickle

        signature = minhash_signature(["a", "b"], num_permutations=16)
        signature.jaccard(signature)  # materialise the cached vector
        assert "_vector_cache" in signature.__dict__
        clone = pickle.loads(pickle.dumps(signature))
        assert clone == signature
        assert "_vector_cache" not in clone.__dict__
        assert clone.jaccard(signature) == 1.0
