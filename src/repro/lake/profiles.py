"""Per-column sketches: the unit of storage of the lake index.

A :class:`ColumnSketch` condenses a column into a few hundred bytes — a
histogram of the value multiset over a *fixed* hashed rank domain (so any
two sketches are directly comparable without re-ranking the pair's value
union) and the type/stats profile of :mod:`repro.data.profiling`.  Its
MinHash signature, for value-overlap estimation, is a row of its
:class:`TableSketch`'s one ``uint32`` signature matrix.  Sketches are
computed once per column when a table enters the
:class:`~repro.lake.store.SketchStore` and reused by every subsequent query,
which is what turns discovery from "re-profile the lake per query" into an
index lookup.  They are read off each column's memoised
:meth:`~repro.data.table.Column.scan`, which normalises and hashes every
distinct value once: the MinHash, the histogram and the profile read that
one scan, and so does SemProp's prepare of the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Optional

import numpy as np

from repro.data import sections as framing
from repro.data.fingerprint import table_content_hash
from repro.data.profiling import ColumnProfile, profile_column
from repro.data.table import Table
from repro.data.types import DataType
from repro.sketches.minhash import DEFAULT_SEED, minhash_signatures_from_hashes

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
    seed: int = DEFAULT_SEED
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


@dataclass(frozen=True)
class ColumnSketch:
    """A compact, serialisable summary of one column of one lake table.

    *set_size* counts the normalised distinct values its MinHash signature
    (its row of :attr:`TableSketch.signatures`) was taken over.
    """

    table_name: str
    column_name: str
    data_type: DataType
    set_size: int
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
        set_size: int,
        histogram: tuple[float, ...],
    ) -> "ColumnSketch":
        return cls(
            table_name=table_name,
            column_name=profile.name,
            data_type=profile.data_type,
            set_size=set_size,
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


def _column_fields(column: ColumnSketch, width: int) -> list:
    """A column's skeleton entry; its signature and histogram go to the sections."""
    stats = (column.mean, column.std, column.minimum, column.maximum, column.avg_length)
    return [
        column.column_name, column.data_type.value, column.set_size,
        width, len(column.histogram),
        column.row_count, column.distinct_count, column.missing_count,
        *(None if stat is None else float(stat) for stat in stats),
    ]  # fmt: skip


def _column_from_fields(table: str, fields: list, weights: Iterator):
    """Inverse of :func:`_column_fields`, reading the histogram off *weights*."""
    name, type_name, set_size, _width, buckets, *profile = fields
    if type(name) is not str or {*map(type, fields[2:8])} - {int} or (
        {*map(type, fields[8:])} - {float, type(None)}
    ):
        raise ValueError(f"malformed column {name!r}")
    histogram = tuple(islice(weights, buckets))
    return ColumnSketch(table, name, DataType(type_name), set_size, histogram, *profile)


@dataclass(frozen=True, eq=False)
class TableSketch:
    """All column sketches of one table plus identity metadata.

    *signatures* holds the columns' MinHash signatures as one read-only
    ``uint32`` matrix, a row per column in column order (``(0, 0)`` for a
    table without columns).

    :meth:`to_bytes` / :meth:`from_bytes` are the one sketch codec: the bytes
    they define are a :class:`~repro.lake.store.SketchStore` row *and* the
    blob a published snapshot hash-pins, so a format change is made here and
    nowhere else.
    """

    name: str
    content_hash: str
    num_rows: int
    columns: tuple[ColumnSketch, ...]
    signatures: np.ndarray

    def __post_init__(self) -> None:
        if self.signatures.ndim != 2 or len(self.signatures) != len(self.columns):
            raise ValueError(f"table sketch {self.name!r} needs one signature per column")
        self.signatures.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSketch):
            return NotImplemented
        fields = (self.name, self.content_hash, self.num_rows, self.columns)
        return fields == (other.name, other.content_hash, other.num_rows, other.columns) and (
            np.array_equal(self.signatures, other.signatures)
        )

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def to_bytes(self) -> bytes:
        """The row bytes of this sketch (inverse of :meth:`from_bytes`): a
        :mod:`~repro.data.sections` frame of the identity and
        :func:`_column_fields` per column, then the signature matrix as one
        ``<u4`` section and every histogram as one ``<f8`` section."""
        if any(column.table_name != self.name for column in self.columns):
            raise ValueError(f"table sketch {self.name!r} holds another table's column")
        skeleton = {
            "name": self.name,
            "content_hash": self.content_hash,
            "rows": self.num_rows,
            "columns": [
                _column_fields(column, self.signatures.shape[1]) for column in self.columns
            ],
        }
        histograms = [weight for column in self.columns for weight in column.histogram]
        signatures = self.signatures.astype("<u4", copy=False)
        sections = (signatures.tobytes(), np.array(histograms, "<f8").tobytes())
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
            (width,) = {entry[3] for entry in entries} or {0}  # ragged: ValueError
            signatures = framing.section_array(signature_bytes, "<u4", (len(entries), width))
            buckets = sum(entry[4] for entry in entries)
            weights = iter(framing.section_array(histogram_bytes, "<f8", (buckets,)).tolist())
            columns = tuple(_column_from_fields(name, entry, weights) for entry in entries)
            return cls(name, content_hash, rows, columns, signatures)
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise ValueError(
                f"not a table sketch ({type(exc).__name__}: {exc})"
            ) from exc


def sketch_table(
    table: Table,
    config: SketchConfig = SketchConfig(),
    content_hash: Optional[str] = None,
) -> TableSketch:
    """Sketch every column of *table* from its columns' memoised scans.

    Each :meth:`~repro.data.table.Column.scan` hashes a column's distinct
    values once, and SemProp's prepare reuses it.  The table's MinHash
    signatures come from one batched kernel over the scans' hashes, each
    histogram is a ``bincount`` weighted by the scan's counts, and each
    profile comes from :func:`~repro.data.profiling.profile_column`.

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
    scans = [column.scan() for column in columns]
    signatures, set_sizes = minhash_signatures_from_hashes(
        [scan.hashes for scan in scans],
        num_permutations=config.num_permutations,
        seed=config.seed,
    )
    sketches = []
    for column, scan, set_size in zip(columns, scans, set_sizes.tolist()):
        # The cells' shares per equal-width bucket of the hashed rank domain:
        # a value's rank is its hash modulo the domain, weighed by its count.
        ranks = scan.hashes[scan.slots] % np.uint64(_HASH_RANK_DOMAIN)
        buckets = (ranks / _HASH_RANK_DOMAIN * config.num_buckets).astype(np.int64)
        counts = np.bincount(
            np.minimum(buckets, config.num_buckets - 1),
            weights=scan.counts,
            minlength=config.num_buckets,
        )
        total = counts.sum()
        histogram = tuple((counts / total if total > 0 else counts).tolist())
        sketches.append(
            ColumnSketch.from_profile(profile_column(column), table.name, set_size, histogram)
        )
    return TableSketch(
        name=table.name,
        content_hash=table_content_hash(table) if content_hash is None else content_hash,
        num_rows=table.num_rows,
        columns=tuple(sketches),
        signatures=signatures,
    )
