"""MinHash signatures for set-overlap estimation.

SemProp's syntactic matcher (and several of the dataset discovery systems the
paper surveys, e.g. Aurum and LSH Ensemble) estimate value-set overlap with
MinHash sketches instead of exact set intersection.  This module provides a
deterministic MinHash implementation with a Jaccard estimator.

A batch of signatures is one ``uint32`` matrix, a row per value set and a
column per permutation (every MinHash value fits 32 bits), next to an array
of the sets' distinct-value counts; nothing converts a row to Python ints.
Callers hash each set's distinct normalised values once
(:func:`hash_values`, the one place that normalises a value; a column's
memoised scan calls it for the lake sketch and SemProp alike), and :func:`minhash_signatures_from_hashes`
applies the ``(a * h + b) mod p`` permutation family to a whole batch by
broadcast arithmetic, with the per-set minima from one segmented reduction.
``p`` is the Mersenne prime ``2^61 - 1``, so the reduction needs no
division: ``2^61`` is 1 modulo ``p``, hence ``x mod p`` is ``(x & p) + (x >>
61)`` less one conditional subtraction of ``p`` (Thorup, *High Speed Hashing
for Integers and Strings*, arXiv 1504.06804).  A pure-Python reference
(:func:`minhash_signatures_scalar`) computes bit-identical signatures value
by value; it exists so tests can verify the vectorized path against an
independent implementation.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "minhash_signatures_scalar",
    "hash_normalized_values",
    "hash_values",
    "minhash_signatures_from_hashes",
    "jaccard_matrix",
]

#: The permutation family's seed: every sketch store's default, and the one
#: SemProp hashes with.
DEFAULT_SEED = 7

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


@functools.lru_cache(maxsize=1 << 16)
def _stable_hash(value: str) -> int:
    """Deterministic 32-bit hash of a string (independent of PYTHONHASHSEED).

    The scalar twin of :func:`hash_normalized_values`: one blake2b digest
    truncated to 32 bits, for the scalar reference path.
    """
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MAX_HASH


def hash_normalized_values(values: Iterable[str]) -> np.ndarray:
    """Hash already-normalised strings into a ``uint64`` array in one pass.

    Produces exactly ``[_stable_hash(v) for v in values]`` but builds the
    digests into one contiguous buffer and converts with a single
    ``np.frombuffer`` instead of a per-value ``int.from_bytes`` round trip.
    The values must be normalised and distinct already, as
    :func:`hash_values` passes them.
    """
    blake2b = hashlib.blake2b
    buffer = b"".join(
        blake2b(value.encode("utf-8"), digest_size=8).digest() for value in values
    )
    if not buffer:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(buffer, dtype="<u8").astype(np.uint64) & np.uint64(_MAX_HASH)


def hash_values(values: Iterable[object]) -> tuple[np.ndarray, np.ndarray]:
    """Hash each distinct normalised ``str(v).strip().lower()`` of *values*
    once: ``(slots, hashes)``, ``slots[i]`` the index of ``values[i]``'s hash."""
    slot_of: dict[str, int] = {}
    slots = [slot_of.setdefault(str(value).strip().lower(), len(slot_of)) for value in values]
    return np.array(slots, np.intp), hash_normalized_values(slot_of)


@functools.lru_cache(maxsize=64)
def _permutation_parameters(num_permutations: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers/offsets of the ``(a*h + b) mod p`` permutation family,
    drawn once per ``(width, seed)`` and read-only.

    ``a`` and ``b`` are drawn below 2^32 so that with 32-bit value hashes the
    product ``a*h + b`` stays below 2^64 and the modular reduction is *exact*
    in uint64 arithmetic — no silent wrap-around before the ``mod p``.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MAX_HASH + 1, size=num_permutations, dtype=np.uint64)
    b = rng.integers(0, _MAX_HASH + 1, size=num_permutations, dtype=np.uint64)
    a.flags.writeable = b.flags.writeable = False
    return a, b


#: Upper bound on ``distinct values x permutations`` products materialised at
#: once by :func:`minhash_signatures_from_hashes`; keeps peak memory flat on
#: large lakes.
_BATCH_CELL_BUDGET = 4_000_000


def minhash_signatures_from_hashes(
    hash_arrays: Sequence[np.ndarray],
    num_permutations: int = 128,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Signatures from precomputed 32-bit value hashes (one array per set).

    Returns the ``(sets x permutations)`` ``uint32`` signature matrix and
    the ``int64`` size of each set; no sets give a ``(0, 0)`` matrix and an
    empty set's row is all ``2**32 - 1``.  Hash arrays must come from
    :func:`hash_values` (or equal :func:`_stable_hash` values)
    with one entry per *distinct* normalised value, as a column's scan holds
    them.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    a, b = _permutation_parameters(num_permutations, seed)
    prime = np.uint64(_MERSENNE_PRIME)

    signatures = np.full(
        (len(hash_arrays), num_permutations if len(hash_arrays) else 0), _MAX_HASH, np.uint32
    )

    chunk_rows = max(1, _BATCH_CELL_BUDGET // num_permutations)
    chunk_arrays: list[np.ndarray] = []  # hash arrays of the columns in flight
    chunk_length = 0
    chunk_members: list[int] = []  # column index per segment
    chunk_offsets: list[int] = []  # segment start per column

    def _flush() -> None:
        nonlocal chunk_length
        if not chunk_members:
            return
        # (a * h + b) mod p, truncated to 32 bits — exact: h, a, b < 2^32
        # keep every intermediate below 2^64, and the Mersenne fold leaves
        # at most p + 7 for the one conditional subtraction.
        products = np.outer(np.concatenate(chunk_arrays), a)
        products += b
        folded = products & prime
        folded += np.right_shift(products, np.uint64(61), out=products)
        np.subtract(folded, prime, out=folded, where=folded >= prime)
        folded &= np.uint64(_MAX_HASH)
        mins = np.minimum.reduceat(folded, np.asarray(chunk_offsets))
        signatures[chunk_members] = mins
        chunk_arrays.clear()
        chunk_members.clear()
        chunk_offsets.clear()
        chunk_length = 0

    for column_index, hashes in enumerate(hash_arrays):
        if hashes.size == 0:  # its row stays all 2**32 - 1
            continue
        if chunk_length and chunk_length + hashes.size > chunk_rows:
            _flush()
        chunk_offsets.append(chunk_length)
        chunk_members.append(column_index)
        chunk_arrays.append(np.ascontiguousarray(hashes, dtype=np.uint64))
        chunk_length += int(hashes.size)
    _flush()
    return signatures, np.array([hashes.size for hashes in hash_arrays], dtype=np.int64)


def minhash_signatures_scalar(
    value_sets: Sequence[Iterable[object]],
    num_permutations: int = 128,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-Python reference MinHash of value collections, each rendered as
    stripped, lowercased strings.

    One :func:`_stable_hash` call per distinct value and one Python-level
    ``(a*h + b) mod p`` loop per permutation — the pre-vectorization hot
    path, kept as an independently-written oracle.  Tests assert the NumPy
    batch path produces bit-identical signatures.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    a, b = _permutation_parameters(num_permutations, seed)
    a_ints = [int(x) for x in a]
    b_ints = [int(x) for x in b]

    signatures, set_sizes = [], []
    for values in value_sets:
        distinct = {str(v).strip().lower() for v in values}
        hashes = [_stable_hash(value) for value in distinct]
        if not hashes:
            signatures.append([_MAX_HASH] * num_permutations)
        else:
            signatures.append(
                [
                    min(((a_i * h + b_i) % _MERSENNE_PRIME) & _MAX_HASH for h in hashes)
                    for a_i, b_i in zip(a_ints, b_ints)
                ]
            )
        set_sizes.append(len(hashes))
    width = num_permutations if signatures else 0
    return (
        np.array(signatures, dtype=np.uint32).reshape(len(signatures), width),
        np.array(set_sizes, dtype=np.int64),
    )


def jaccard_matrix(matrix_a: np.ndarray, matrix_b: np.ndarray) -> np.ndarray:
    """Pairwise estimated Jaccard similarities between two signature matrices.

    Rows are signatures (see :func:`minhash_signatures_from_hashes`).  ``result[i, j]``
    is the share of permutations on which row ``i`` of *matrix_a* and row
    ``j`` of *matrix_b* agree (one equality count per pair, divided by the
    permutation count), and the whole grid is a single broadcast comparison
    — the shape every all-pairs column matcher needs.
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
