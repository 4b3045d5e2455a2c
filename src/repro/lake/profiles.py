"""Table sketches: the unit of storage of the lake index.

A :class:`TableSketch` condenses every column of a table into a few hundred
bytes — a MinHash signature for value-overlap estimation, a histogram of the
value multiset over a *fixed* hashed rank domain (so any two sketches are
directly comparable without re-ranking the pair's value union) and the
type/stats profile of :mod:`repro.data.profiling` — held as a row of a few
per-table arrays, the arrays the :class:`~repro.lake.index.LakeIndex`
stacks and probes.  A stored row decodes straight back to them, its
signature and histogram matrices as views of the row's bytes.  Sketches are
computed once per table when it enters the
:class:`~repro.lake.store.SketchStore` and reused by every subsequent query,
which is what turns discovery from "re-profile the lake per query" into an
index lookup.  They are read off each column's memoised
:meth:`~repro.data.table.Column.scan`, which normalises and hashes every
distinct value once: the MinHash, the histogram and the profile read that
one scan, and so does SemProp's prepare of the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional

import numpy as np

from repro.data import sections as framing
from repro.data.fingerprint import table_content_hash
from repro.data.profiling import profile_column
from repro.data.table import Table
from repro.data.types import TYPE_INDEX
from repro.sketches.minhash import DEFAULT_SEED, minhash_signatures_from_hashes

__all__ = [
    "SketchConfig",
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


#: The optional statistics, in the column order of ``TableSketch.stats``.
_STATS = ("mean", "std", "minimum", "maximum", "avg_length")
#: ``DataType`` value -> its ``TYPE_INDEX`` code, and back.
_TYPE_CODES = {data_type.value: code for data_type, code in TYPE_INDEX.items()}
_TYPE_NAMES = [data_type.value for data_type in TYPE_INDEX]
#: The per-column arrays of a ``TableSketch`` and the shape each row has
#: (``None``: a row of the table's signature or histogram width).
_ROW_SHAPES = {"types": (), "signatures": None, "histograms": None, "counts": (4,)}
_ROW_SHAPES.update(stats=(len(_STATS),), present=(len(_STATS),))


def _by_column(fields, dtype) -> np.ndarray:
    """Field-major values (a sequence per field) as a row per column."""
    return np.array(fields, dtype=dtype).T.copy()


def _optional(fields) -> dict[str, np.ndarray]:
    """Field-major optional statistics as ``stats`` (``None`` read as NaN)
    and the ``present`` mask that tells a ``None`` from a NaN."""
    present = [[value is not None for value in field] for field in fields]
    return {"stats": _by_column(fields, np.float64), "present": _by_column(present, bool)}


@dataclass(frozen=True, eq=False)
class TableSketch:
    """A table's identity plus its columns' sketches, a row per column in
    column order, as read-only arrays:

    * *column_names* and *types* (``TYPE_INDEX`` codes);
    * *signatures* — the MinHash signatures, one ``uint32`` matrix;
    * *histograms* — each column's cell shares per equal-width bucket of the
      fixed hashed rank domain, one ``float64`` matrix;
    * *counts* — ``int64``: set size (the normalised distinct values the
      signature was taken over), rows, distinct values and missing cells;
    * *stats* — ``float64``: mean, std, minimum, maximum and average length,
      NaN where *present* says the statistic is unset (``None``).

    A table without columns has ``(0, 0)`` signature and histogram matrices.

    :meth:`to_bytes` / :meth:`from_bytes` are the one sketch codec: the bytes
    they define are a :class:`~repro.lake.store.SketchStore` row *and* the
    blob a published snapshot hash-pins, so a format change is made here and
    nowhere else.
    """

    name: str
    content_hash: str
    num_rows: int
    column_names: tuple[str, ...]
    types: np.ndarray
    signatures: np.ndarray
    histograms: np.ndarray
    counts: np.ndarray
    stats: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        for field, shape in _ROW_SHAPES.items():
            array = getattr(self, field)
            if array.shape[:1] != (self.num_columns,) or (
                array.ndim != 2 if shape is None else array.shape[1:] != shape
            ):
                raise ValueError(f"table sketch {self.name!r} needs one {field} row per column")
            array.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSketch):
            return NotImplemented
        identity = ("name", "content_hash", "num_rows", "column_names")
        return all(getattr(self, field) == getattr(other, field) for field in identity) and all(
            np.array_equal(getattr(self, field), getattr(other, field), equal_nan=True)
            for field in _ROW_SHAPES
        )

    @property
    def num_columns(self) -> int:
        return len(self.column_names)

    def to_bytes(self) -> bytes:
        """The row bytes of this sketch (inverse of :meth:`from_bytes`): a
        :mod:`~repro.data.sections` frame of the identity and a JSON entry
        per column, then the signature and histogram matrices as one ``<u4``
        and one ``<f8`` section."""
        widths = [self.signatures.shape[1], self.histograms.shape[1]]
        stats = [
            [value if is_set else None for value, is_set in zip(values, present)]
            for values, present in zip(self.stats.tolist(), self.present.tolist())
        ]
        columns = [
            [name, _TYPE_NAMES[code], size, *widths, rows, distinct, missing, *optional]
            for name, code, (size, rows, distinct, missing), optional in zip(
                self.column_names, self.types.tolist(), self.counts.tolist(), stats
            )
        ]
        identity = {"name": self.name, "content_hash": self.content_hash, "rows": self.num_rows}
        signatures, histograms = self.signatures.astype("<u4"), self.histograms.astype("<f8")
        sections = (signatures.tobytes(), histograms.tobytes())
        return framing.pack(_SKETCH_MAGIC, {**identity, "columns": columns}, sections)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TableSketch":
        """Decode :meth:`to_bytes` output; ``ValueError`` for anything else.

        The signature and histogram matrices are read-only views of *data*;
        a row whose columns declare different signature or histogram widths
        is refused."""
        try:
            skeleton, sections = framing.unpack(_SKETCH_MAGIC, data)
            name, content_hash, rows, entries = (
                skeleton[key] for key in ("name", "content_hash", "rows", "columns")
            )
            if not (type(name) is type(content_hash) is str and type(rows) is int):
                raise ValueError("malformed table identity")
            if type(entries) is not list or any(
                type(entry) is not list or len(entry) != 8 + len(_STATS) for entry in entries
            ):
                raise ValueError("malformed columns")
            fields = list(zip(*entries)) or [()] * (8 + len(_STATS))
            names, type_names, ints, optional = fields[0], fields[1], fields[2:8], fields[8:]
            if (
                {*map(type, names)} - {str}
                or {*map(type, chain(*ints))} - {int}
                or {*map(type, chain(*optional))} - {float, type(None)}
            ):
                raise ValueError("malformed column")
            (width,) = set(fields[3]) or {0}  # ragged: ValueError
            (buckets,) = set(fields[4]) or {0}
            signature_bytes, histogram_bytes = sections
            types = np.array([_TYPE_CODES[type_name] for type_name in type_names], np.intp)
            signatures = framing.section_array(signature_bytes, "<u4", (len(names), width))
            histograms = framing.section_array(histogram_bytes, "<f8", (len(names), buckets))
            counts = _by_column([fields[2], *fields[5:8]], np.int64)
            identity = (name, content_hash, rows, names, types)
            return cls(*identity, signatures, histograms, counts, **_optional(optional))
        except (ValueError, KeyError, IndexError, TypeError, OverflowError, RecursionError) as exc:
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
    histograms = np.zeros((len(columns), config.num_buckets if columns else 0))
    for histogram, scan in zip(histograms, scans):
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
        histogram[:] = counts / total if total > 0 else counts
    profiles = [profile_column(column) for column in columns]
    tallies = [set_sizes.tolist()] + [
        [getattr(profile, field) for profile in profiles]
        for field in ("row_count", "distinct_count", "missing_count")
    ]
    return TableSketch(
        name=table.name,
        content_hash=table_content_hash(table) if content_hash is None else content_hash,
        num_rows=table.num_rows,
        column_names=tuple(profile.name for profile in profiles),
        types=np.array([TYPE_INDEX[profile.data_type] for profile in profiles], np.intp),
        signatures=signatures,
        histograms=histograms,
        counts=_by_column(tallies, np.int64),
        **_optional([[getattr(profile, field) for profile in profiles] for field in _STATS]),
    )
