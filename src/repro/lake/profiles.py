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

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Optional

import numpy as np

from repro.data import sections as framing
from repro.data.fingerprint import table_content_hash
from repro.data.profiling import ColumnProfile, profile_column
from repro.data.table import Column, Table
from repro.data.types import DataType
from repro.distributions.histograms import build_histogram
from repro.sketches.minhash import (
    MinHashSignature,
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

_SKETCH_MAGIC = b"SKCH"


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


def _column_fields(column: ColumnSketch) -> list:
    """A column's skeleton entry; its signature and histogram go to the sections."""
    stats = (column.mean, column.std, column.minimum, column.maximum, column.avg_length)
    return [
        column.column_name, column.data_type.value, column.minhash.set_size,
        len(column.minhash.values), len(column.histogram),
        column.row_count, column.distinct_count, column.missing_count,
        *(None if stat is None else float(stat) for stat in stats),
    ]  # fmt: skip


def _column_from_fields(table: str, fields: list, values: Iterator, weights: Iterator):
    """Inverse of :func:`_column_fields`, reading the numbers off *values* / *weights*."""
    name, type_name, set_size, width, buckets, *profile = fields
    if type(name) is not str or {*map(type, fields[2:8])} - {int} or (
        {*map(type, fields[8:])} - {float, type(None)}
    ):
        raise ValueError(f"malformed column {name!r}")
    signature = MinHashSignature(tuple(islice(values, width)), set_size)
    histogram = tuple(islice(weights, buckets))
    return ColumnSketch(table, name, DataType(type_name), signature, histogram, *profile)


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
        """The row bytes of this sketch (inverse of :meth:`from_bytes`): a
        :mod:`~repro.data.sections` frame of the identity and
        :func:`_column_fields` per column, then every signature as one
        ``<u4`` section and every histogram as one ``<f8`` section."""
        if any(column.table_name != self.name for column in self.columns):
            raise ValueError(f"table sketch {self.name!r} holds another table's column")
        skeleton = {
            "name": self.name,
            "content_hash": self.content_hash,
            "rows": self.num_rows,
            "columns": [_column_fields(column) for column in self.columns],
        }
        signatures = [value for column in self.columns for value in column.minhash.values]
        histograms = [weight for column in self.columns for weight in column.histogram]
        sections = (np.array(signatures, "<u4").tobytes(), np.array(histograms, "<f8").tobytes())
        return framing.pack(_SKETCH_MAGIC, skeleton, sections)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TableSketch":
        """Decode :meth:`to_bytes` output; ``ValueError`` for anything else."""
        try:
            skeleton, sections = framing.unpack(_SKETCH_MAGIC, data)
            name, content_hash, rows, entries = (
                skeleton[key] for key in ("name", "content_hash", "rows", "columns")
            )
            if not (type(name) is type(content_hash) is str and type(rows) is int):
                raise ValueError("malformed table identity")
            signature_bytes, histogram_bytes = sections
            widths = [(entry[3], entry[4]) for entry in entries]
            signatures = framing.section_array(signature_bytes, "<u4", (sum(w for w, _ in widths),))
            histograms = framing.section_array(histogram_bytes, "<f8", (sum(b for _, b in widths),))
            values, weights = iter(signatures.tolist()), iter(histograms.tolist())
            columns = [_column_from_fields(name, entry, values, weights) for entry in entries]
            return cls(name=name, content_hash=content_hash, num_rows=rows, columns=tuple(columns))
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
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
