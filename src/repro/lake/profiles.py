"""Per-column sketches: the unit of storage of the lake index.

A :class:`ColumnSketch` condenses a column into a few hundred bytes — a
MinHash signature for value-overlap estimation, a histogram of the value
multiset over a *fixed* hashed rank domain (so any two sketches are directly
comparable without re-ranking the pair's value union), and the type/stats
profile of :mod:`repro.data.profiling`.  Sketches are computed once per
column when a table enters the :class:`~repro.lake.store.SketchStore` and
reused by every subsequent query, which is what turns discovery from
"re-profile the lake per query" into an index lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.data.fingerprint import table_content_hash
from repro.data.profiling import ColumnProfile, profile_column
from repro.data.table import Column, Table
from repro.data.types import DataType, type_compatibility
from repro.distributions.histograms import build_histogram
from repro.sketches.minhash import (
    MinHashSignature,
    _stable_hash,
    hash_normalized_values,
    minhash_signatures_from_hashes,
)

__all__ = [
    "SketchConfig",
    "ColumnSketch",
    "TableSketch",
    "sketch_table",
    "table_content_hash",
]

#: Size of the fixed hashed rank domain histograms are built over.  All
#: sketches share this domain, so histograms are comparable across columns
#: without building a per-pair value union.
_HASH_RANK_DOMAIN = 8192


@dataclass(frozen=True)
class SketchConfig:
    """Parameters shared by every sketch in one store/index.

    Signatures with different parameters are not comparable, so the store
    persists its config and queries must be sketched with the same one.
    """

    num_permutations: int = 128
    seed: int = 7
    num_buckets: int = 16

    def as_dict(self) -> dict[str, int]:
        return {
            "num_permutations": self.num_permutations,
            "seed": self.seed,
            "num_buckets": self.num_buckets,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SketchConfig":
        return cls(
            num_permutations=int(data["num_permutations"]),
            seed=int(data["seed"]),
            num_buckets=int(data["num_buckets"]),
        )


def _hash_rank(value: object) -> int:
    """Rank of a value in the fixed hashed domain (stable across processes).

    Uses the same normalisation and stable hash as the MinHash sketches, so
    both summaries agree on value identity.
    """
    return _stable_hash(str(value).strip().lower()) % _HASH_RANK_DOMAIN


def _hash_space_histogram(
    values: list, ranks: Mapping[object, int], num_buckets: int
) -> tuple[float, ...]:
    """Histogram of a value multiset over the hashed rank domain.

    *values* are the column's non-missing cells and *ranks* their
    value→rank mapping — passed in so the caller's single column scan (and
    single hashing pass, shared with MinHash) is reused here.
    """
    histogram = build_histogram(
        values, ranks, num_buckets=num_buckets, max_rank=_HASH_RANK_DOMAIN - 1
    )
    return histogram.weights


@dataclass(frozen=True)
class ColumnSketch:
    """A compact, serialisable summary of one column of one lake table."""

    table_name: str
    column_name: str
    data_type: DataType
    minhash: MinHashSignature
    histogram: tuple[float, ...]
    row_count: int
    distinct_count: int
    missing_count: int
    mean: Optional[float]
    std: Optional[float]
    minimum: Optional[float]
    maximum: Optional[float]
    avg_length: float

    @property
    def key(self) -> tuple[str, str]:
        """``(table name, column name)`` — unique within one lake."""
        return (self.table_name, self.column_name)

    def jaccard(self, other: "ColumnSketch") -> float:
        """Estimated value-set Jaccard similarity with another sketch."""
        return self.minhash.jaccard(other.minhash)

    def containment(self, other: "ColumnSketch") -> float:
        """Estimated containment of this column's values in *other*'s."""
        return self.minhash.containment(other.minhash)

    def type_compatibility(self, other: "ColumnSketch") -> float:
        """Data-type compatibility score in [0, 1]."""
        return type_compatibility(self.data_type, other.data_type)

    def histogram_distance(self, other: "ColumnSketch") -> float:
        """L1 distance between the hash-space histograms (in [0, 2]).

        Both histograms live on the same fixed domain, so the distance is
        meaningful without re-bucketing; empty histograms compare as 0.
        """
        if not self.histogram or not other.histogram:
            return 0.0
        if len(self.histogram) != len(other.histogram):
            raise ValueError("histograms must use the same number of buckets")
        return sum(abs(a - b) for a, b in zip(self.histogram, other.histogram))

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "table_name": self.table_name,
            "column_name": self.column_name,
            "data_type": self.data_type.value,
            "signature": list(self.minhash.values),
            "set_size": self.minhash.set_size,
            "histogram": list(self.histogram),
            "row_count": self.row_count,
            "distinct_count": self.distinct_count,
            "missing_count": self.missing_count,
            "mean": self.mean,
            "std": self.std,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "avg_length": self.avg_length,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ColumnSketch":
        return cls(
            table_name=str(data["table_name"]),
            column_name=str(data["column_name"]),
            data_type=DataType(data["data_type"]),
            minhash=MinHashSignature(
                tuple(int(x) for x in data["signature"]), int(data["set_size"])
            ),
            histogram=tuple(float(x) for x in data["histogram"]),
            row_count=int(data["row_count"]),
            distinct_count=int(data["distinct_count"]),
            missing_count=int(data["missing_count"]),
            mean=None if data["mean"] is None else float(data["mean"]),
            std=None if data["std"] is None else float(data["std"]),
            minimum=None if data["minimum"] is None else float(data["minimum"]),
            maximum=None if data["maximum"] is None else float(data["maximum"]),
            avg_length=float(data["avg_length"]),
        )

    @classmethod
    def from_profile(
        cls,
        profile: ColumnProfile,
        table_name: str,
        minhash: MinHashSignature,
        histogram: tuple[float, ...],
    ) -> "ColumnSketch":
        return cls(
            table_name=table_name,
            column_name=profile.name,
            data_type=profile.data_type,
            minhash=minhash,
            histogram=histogram,
            row_count=profile.row_count,
            distinct_count=profile.distinct_count,
            missing_count=profile.missing_count,
            mean=profile.mean,
            std=profile.std,
            minimum=profile.minimum,
            maximum=profile.maximum,
            avg_length=profile.avg_length,
        )


@dataclass(frozen=True)
class TableSketch:
    """All column sketches of one table plus identity metadata.

    :meth:`to_bytes` / :meth:`from_bytes` are the one sketch codec: the bytes
    they define are a :class:`~repro.lake.store.SketchStore` row *and* the
    blob a published snapshot hash-pins, so a format change is made here and
    nowhere else.
    """

    name: str
    content_hash: str
    num_rows: int
    columns: tuple[ColumnSketch, ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def to_bytes(self) -> bytes:
        """Canonical JSON bytes of this sketch (inverse of :meth:`from_bytes`).

        Sorted keys and fixed separators: equal sketches give equal bytes,
        hence equal digests, hence a no-op re-publish.
        """
        return json.dumps(
            {
                "name": self.name,
                "content_hash": self.content_hash,
                "num_rows": self.num_rows,
                "columns": [column.to_dict() for column in self.columns],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "TableSketch":
        """Decode :meth:`to_bytes` output; ``ValueError`` for anything else."""
        try:
            decoded = json.loads(bytes(data).decode("utf-8"))
            return cls(
                name=str(decoded["name"]),
                content_hash=str(decoded["content_hash"]),
                num_rows=int(decoded["num_rows"]),
                columns=tuple(ColumnSketch.from_dict(c) for c in decoded["columns"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"not a table sketch ({type(exc).__name__}: {exc})"
            ) from exc

    def column(self, name: str) -> ColumnSketch:
        for sketch in self.columns:
            if sketch.column_name == name:
                return sketch
        raise KeyError(f"table sketch {self.name!r} has no column {name!r}")


def sketch_table(
    table: Table,
    config: SketchConfig = SketchConfig(),
    content_hash: Optional[str] = None,
) -> TableSketch:
    """Sketch every column of *table* in one batched hashing pass.

    Parameters
    ----------
    table / config:
        What to sketch and with which parameters.
    content_hash:
        Pass a precomputed :func:`table_content_hash` to avoid re-hashing
        every cell (the store already computed it for cache invalidation),
        or ``""`` for transient query-side sketches where identity is never
        consulted.  Computed on demand when omitted.
    """
    columns = table.columns
    # One non-missing/distinct scan AND one hashing pass per column, shared
    # by all three passes (minhash, profile, histogram) — previously minhash
    # and the hashed-rank histogram each digested the distinct values.
    scans = []
    hash_arrays = []
    rank_maps = []
    for column in columns:
        values = column.non_missing()
        distinct = set(values)
        scans.append((values, distinct))
        # Normalise once; distinct raw values can collapse onto one
        # normalised string, so hashes are computed over the normalised set.
        normalized_of = {raw: str(raw).strip().lower() for raw in distinct}
        normalized = list(dict.fromkeys(normalized_of.values()))
        hashes = hash_normalized_values(normalized)
        hash_arrays.append(hashes)
        rank_of_normalized = dict(
            zip(normalized, (hashes % np.uint64(_HASH_RANK_DOMAIN)).tolist())
        )
        rank_maps.append(
            {raw: rank_of_normalized[norm] for raw, norm in normalized_of.items()}
        )
    signatures = minhash_signatures_from_hashes(
        hash_arrays,
        num_permutations=config.num_permutations,
        seed=config.seed,
    )
    sketches = []
    for column, (values, distinct), ranks, signature in zip(
        columns, scans, rank_maps, signatures
    ):
        profile = profile_column(
            column, non_missing=values, distinct_count=len(distinct)
        )
        histogram = _hash_space_histogram(values, ranks, config.num_buckets)
        sketches.append(
            ColumnSketch.from_profile(profile, table.name, signature, histogram)
        )
    return TableSketch(
        name=table.name,
        content_hash=table_content_hash(table) if content_hash is None else content_hash,
        num_rows=table.num_rows,
        columns=tuple(sketches),
    )
