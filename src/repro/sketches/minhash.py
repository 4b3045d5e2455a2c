"""MinHash signatures for set-overlap estimation.

SemProp's syntactic matcher (and several of the dataset discovery systems the
paper surveys, e.g. Aurum and LSH Ensemble) estimate value-set overlap with
MinHash sketches instead of exact set intersection.  This module provides a
deterministic MinHash implementation with a Jaccard estimator.

The implementation is fully batched: every distinct value across a batch of
value sets is digested exactly once into a ``uint64`` hash array, the
``(a * h + b) mod p`` permutation family is applied to the whole array via
broadcast arithmetic, and the per-set minima come from one segmented
reduction.  A pure-Python reference (:func:`minhash_signatures_scalar`)
computes bit-identical signatures value by value; it exists so tests can
verify the vectorized path against an independent implementation.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "MinHashSignature",
    "minhash_signature",
    "minhash_signatures",
    "minhash_signatures_scalar",
    "hash_normalized_values",
    "minhash_signatures_from_hashes",
    "signature_matrix",
    "jaccard_matrix",
    "estimate_jaccard",
]

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


@functools.lru_cache(maxsize=1 << 16)
def _stable_hash(value: str) -> int:
    """Deterministic 32-bit hash of a string (independent of PYTHONHASHSEED).

    The scalar twin of :func:`hash_normalized_values`: one blake2b digest
    truncated to 32 bits.  Kept (and cached) for the callers that hash single
    values on demand — the hashed-rank histogram domain and the scalar
    reference path — while the batch pipeline hashes whole arrays at once.
    """
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MAX_HASH


def hash_normalized_values(values: Iterable[str]) -> np.ndarray:
    """Hash already-normalised strings into a ``uint64`` array in one pass.

    Produces exactly ``[_stable_hash(v) for v in values]`` but builds the
    digests into one contiguous buffer and converts with a single
    ``np.frombuffer`` instead of a per-value ``int.from_bytes`` round trip.
    Callers are expected to have normalised (stripped/lowercased) and
    deduplicated the values already.
    """
    blake2b = hashlib.blake2b
    buffer = b"".join(
        blake2b(value.encode("utf-8"), digest_size=8).digest() for value in values
    )
    if not buffer:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(buffer, dtype="<u8").astype(np.uint64) & np.uint64(_MAX_HASH)


@dataclass(frozen=True)
class MinHashSignature:
    """A MinHash signature of a value set."""

    values: tuple[int, ...]
    set_size: int

    @property
    def num_permutations(self) -> int:
        return len(self.values)

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimated Jaccard similarity with another signature."""
        if self.num_permutations != other.num_permutations:
            raise ValueError("signatures must use the same number of permutations")
        if self.num_permutations == 0:
            return 0.0
        equal = int(np.count_nonzero(np.array(self.values) == np.array(other.values)))
        return equal / self.num_permutations


def _permutation_parameters(num_permutations: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers/offsets of the ``(a*h + b) mod p`` permutation family.

    ``a`` and ``b`` are drawn below 2^32 so that with 32-bit value hashes the
    product ``a*h + b`` stays below 2^64 and the modular reduction is *exact*
    in uint64 arithmetic — no silent wrap-around before the ``mod p``.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MAX_HASH + 1, size=num_permutations, dtype=np.uint64)
    b = rng.integers(0, _MAX_HASH + 1, size=num_permutations, dtype=np.uint64)
    return a, b


def minhash_signature(
    values: Iterable[object],
    num_permutations: int = 128,
    seed: int = 7,
) -> MinHashSignature:
    """Compute the MinHash signature of a collection of values.

    Values are rendered as lowercase strings before hashing; the signature is
    empty (all max) for an empty input set.  This is the batch path of
    :func:`minhash_signatures` applied to a single collection, so store and
    query sketches can never drift apart.
    """
    return minhash_signatures([values], num_permutations=num_permutations, seed=seed)[0]


#: Upper bound on ``distinct values x permutations`` products materialised at
#: once by :func:`minhash_signatures_from_hashes`; keeps peak memory flat on
#: large lakes.
_BATCH_CELL_BUDGET = 4_000_000


def minhash_signatures(
    value_sets: Sequence[Iterable[object]],
    num_permutations: int = 128,
    seed: int = 7,
) -> list[MinHashSignature]:
    """Compute MinHash signatures for many value collections in one pass.

    Equivalent to ``[minhash_signature(v, ...) for v in value_sets]`` but
    amortises the expensive parts across the whole batch: every distinct
    normalised string in the batch is digested exactly once (values shared
    across columns are interned, not re-hashed), the digests land in one
    ``uint64`` array, and the ``(a * h + b) mod p`` permutation products are
    computed as chunked matrix operations with a segmented min
    (``np.minimum.reduceat``) instead of a per-value Python loop.
    """
    interned: dict[str, int] = {}
    column_indices: list[np.ndarray] = []
    for values in value_sets:
        distinct = {str(v).strip().lower() for v in values}
        slots = [interned.setdefault(value, len(interned)) for value in distinct]
        column_indices.append(np.asarray(slots, dtype=np.intp))
    all_hashes = hash_normalized_values(interned)
    hash_arrays = [all_hashes[indices] for indices in column_indices]
    return minhash_signatures_from_hashes(
        hash_arrays, num_permutations=num_permutations, seed=seed
    )


def minhash_signatures_from_hashes(
    hash_arrays: Sequence[np.ndarray],
    num_permutations: int = 128,
    seed: int = 7,
) -> list[MinHashSignature]:
    """Signatures from precomputed 32-bit value hashes (one array per set).

    The entry point for callers that already hold the hashed distinct values
    — :func:`repro.lake.profiles.sketch_table` hashes each column once and
    shares the array between the MinHash and histogram passes.  Hash arrays
    must come from :func:`hash_normalized_values` (or equal
    :func:`_stable_hash` values) with one entry per *distinct* value.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    a, b = _permutation_parameters(num_permutations, seed)

    empty = MinHashSignature(tuple([_MAX_HASH] * num_permutations), 0)
    signatures: list[Optional[MinHashSignature]] = [None] * len(hash_arrays)

    chunk_rows = max(1, _BATCH_CELL_BUDGET // num_permutations)
    chunk_arrays: list[np.ndarray] = []  # hash arrays of the columns in flight
    chunk_length = 0
    chunk_members: list[int] = []  # column index per segment
    chunk_offsets: list[int] = []  # segment start per column

    def _flush() -> None:
        nonlocal chunk_length
        if not chunk_members:
            return
        hashes = np.concatenate(chunk_arrays)
        # (a * h + b) mod p, truncated to 32 bits — exact: h, a, b < 2^32
        # keep every intermediate below 2^64.
        products = (np.outer(hashes, a) + b) % np.uint64(_MERSENNE_PRIME)
        mins = np.minimum.reduceat(products & np.uint64(_MAX_HASH), np.asarray(chunk_offsets))
        for row, column_index in enumerate(chunk_members):
            signatures[column_index] = MinHashSignature(
                tuple(mins[row].tolist()),
                int(hash_arrays[column_index].size),
            )
        chunk_arrays.clear()
        chunk_members.clear()
        chunk_offsets.clear()
        chunk_length = 0

    for column_index, hashes in enumerate(hash_arrays):
        if hashes.size == 0:
            signatures[column_index] = empty
            continue
        if chunk_length and chunk_length + hashes.size > chunk_rows:
            _flush()
        chunk_offsets.append(chunk_length)
        chunk_members.append(column_index)
        chunk_arrays.append(np.ascontiguousarray(hashes, dtype=np.uint64))
        chunk_length += int(hashes.size)
    _flush()
    return [sig if sig is not None else empty for sig in signatures]


def minhash_signatures_scalar(
    value_sets: Sequence[Iterable[object]],
    num_permutations: int = 128,
    seed: int = 7,
) -> list[MinHashSignature]:
    """Pure-Python reference implementation of :func:`minhash_signatures`.

    One :func:`_stable_hash` call per distinct value and one Python-level
    ``(a*h + b) mod p`` loop per permutation — the pre-vectorization hot
    path, kept as an independently-written oracle.  Tests assert the NumPy
    batch path produces bit-identical signatures; the warm-lake benchmark
    measures its speedup over this function.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    a, b = _permutation_parameters(num_permutations, seed)
    a_ints = [int(x) for x in a]
    b_ints = [int(x) for x in b]

    signatures = []
    for values in value_sets:
        distinct = {str(v).strip().lower() for v in values}
        hashes = [_stable_hash(value) for value in distinct]
        if not hashes:
            signatures.append(MinHashSignature(tuple([_MAX_HASH] * num_permutations), 0))
            continue
        signature = tuple(
            min(((a_i * h + b_i) % _MERSENNE_PRIME) & _MAX_HASH for h in hashes)
            for a_i, b_i in zip(a_ints, b_ints)
        )
        signatures.append(MinHashSignature(signature, len(hashes)))
    return signatures


def signature_matrix(signatures: Sequence[MinHashSignature]) -> np.ndarray:
    """Signatures as the rows of one ``uint64`` matrix (``len x permutations``).

    What :func:`jaccard_matrix` compares.  Every signature value is below
    ``2**32`` (the empty-set value included), so the matrix casts to
    ``uint32`` without loss.  ``ValueError`` when the widths differ.
    """
    if not signatures:
        return np.zeros((0, 0), dtype=np.uint64)
    width = signatures[0].num_permutations
    if any(signature.num_permutations != width for signature in signatures):
        raise ValueError("signatures must use the same number of permutations")
    return np.array([signature.values for signature in signatures], dtype=np.uint64)


def jaccard_matrix(matrix_a: np.ndarray, matrix_b: np.ndarray) -> np.ndarray:
    """Pairwise estimated Jaccard similarities between two signature matrices.

    Rows are signatures (see :func:`signature_matrix`).  ``result[i, j]`` is
    ``MinHashSignature.jaccard`` of row ``i`` and row ``j`` bit for bit (one
    equality count per pair, divided by the permutation count), but the
    whole grid is a single broadcast comparison — the shape every all-pairs
    column matcher needs.
    """
    rows_a, rows_b = len(matrix_a), len(matrix_b)
    if not rows_a or not rows_b:
        return np.zeros((rows_a, rows_b), dtype=float)
    num_permutations = matrix_a.shape[1]
    if matrix_b.shape[1] != num_permutations:
        raise ValueError("signatures must use the same number of permutations")
    if num_permutations == 0:
        return np.zeros((rows_a, rows_b), dtype=float)
    equal = (matrix_a[:, None, :] == matrix_b[None, :, :]).sum(axis=2)
    return equal / num_permutations


def estimate_jaccard(
    values_a: Iterable[object],
    values_b: Iterable[object],
    num_permutations: int = 128,
    seed: int = 7,
) -> float:
    """Convenience: estimated Jaccard similarity of two raw value collections.

    Both collections are sketched in one :func:`minhash_signatures` batch
    (shared values hashed once) and compared with the vectorized
    :meth:`MinHashSignature.jaccard`.
    """
    signature_a, signature_b = minhash_signatures(
        [values_a, values_b], num_permutations=num_permutations, seed=seed
    )
    return signature_a.jaccard(signature_b)
