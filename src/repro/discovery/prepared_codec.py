"""The prepared store's row codec: a :class:`PreparedTable` as plain data.

A stored row is read back by building values, never by running code: a
:mod:`repro.data.sections` frame under ``b"PREP"`` of a canonical-JSON
*skeleton* and little-endian numeric *sections*.  Only
:mod:`repro.discovery.prepared` uses this module.

The skeleton is one JSON object — the schema header (``table``,
``columns``, ``types``, ``rows``), the matcher ``fingerprint`` and the
``payload`` — written with fixed separators, ASCII escapes and the
payload's own key order, so one prepared table always gives the same bytes.
Inside the payload, JSON scalars stand for themselves, a dict with string
keys is a JSON object, and everything else is a JSON array whose first
element is a type tag from one allowlist:

* containers — ``list``, ``tuple``, ``set`` / ``frozenset`` (items sorted);
* ``ndarray`` — ``[dtype, shape, section index]`` over a ``<u4`` / ``<i8``
  / ``<f8`` section (SemProp's signature matrix and set sizes);
* records, as their fields in declaration order — ``SemanticLink``
  (SemProp), ``ColumnProfile`` (a COMA feature bundle), the ``DataType``
  enum, and ``PreparedTable`` (an Ensemble member, sharing the row's
  header).

Only instance-based matchers have rows (a schema-based one scores sketches),
so an older codec's Cupid tree or Similarity Flooding graph is an unknown tag.

:func:`decode` raises ``ValueError`` — and nothing else — for anything that
is not such a row: a bad magic or length, an unknown tag, a short section,
a section whose size disagrees with its dtype and shape.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data import sections as framing
from repro.data.profiling import ColumnProfile
from repro.data.table import TableHeader
from repro.data.types import DataType
from repro.matchers.base import PreparedTable
from repro.matchers.semprop.links import SemanticLink

__all__ = ["decode", "encode"]

_MAGIC = b"PREP"

#: Little-endian dtypes a numeric section may hold.
_DTYPES = frozenset({"<u4", "<i8", "<f8"})

_SCALARS = (str, int, float, bool, type(None))
_CONTAINERS = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset}
#: Records stored as their dataclass fields, in declaration order.
_RECORDS = {cls.__name__: cls for cls in (SemanticLink, ColumnProfile)}
_DATA_TYPES = {data_type.value: data_type for data_type in DataType}


def encode(prepared: PreparedTable) -> bytes:
    """The row bytes of *prepared*; ``ValueError`` for a payload value
    outside the allowlist (the row is then not written)."""
    header = prepared.header
    writer = _Writer(header)
    skeleton = {
        "table": header.name,
        "columns": list(header.column_names),
        "types": [data_type.value for data_type in header.column_types],
        "rows": header.num_rows,
        "fingerprint": prepared.fingerprint,
        "payload": writer.value(dict(prepared.payload)),
    }
    return framing.pack(_MAGIC, skeleton, writer.sections)


def decode(blob: bytes) -> PreparedTable:
    """The :class:`PreparedTable` a row holds (its header, no cells);
    ``ValueError`` when it holds none."""
    try:
        return _decode(blob)
    except (
        ValueError, KeyError, IndexError, TypeError, RecursionError, OverflowError
    ) as exc:
        raise ValueError(f"not a prepared row ({type(exc).__name__}: {exc})") from exc


def _decode(blob: bytes) -> PreparedTable:
    skeleton, sections = framing.unpack(_MAGIC, blob)
    name, columns, types, rows = (skeleton[key] for key in ("table", "columns", "types", "rows"))
    if not (
        type(name) is str
        and type(columns) is list
        and all(type(column) is str for column in columns)
        and type(types) is list
        and len(types) == len(columns)
        and type(rows) is int
        and rows >= 0
    ):
        raise ValueError("malformed header")
    header = TableHeader(name, tuple(columns), tuple(_DATA_TYPES[t] for t in types), rows)
    reader = _Reader(header, sections)
    payload = reader.value(skeleton["payload"])
    fingerprint = skeleton["fingerprint"]
    if type(payload) is not dict or type(fingerprint) is not str:
        raise ValueError("malformed payload")
    if len(reader.used) != len(sections):
        raise ValueError("unreferenced section")
    return PreparedTable(fingerprint=fingerprint, payload=payload, header=header)


class _Writer:
    """Turns payload values into skeleton nodes, collecting numeric sections."""

    def __init__(self, header: TableHeader) -> None:
        self.header = header
        self.sections: list[bytes] = []

    def value(self, value: object) -> object:
        kind = type(value)
        if kind in _SCALARS:
            return value
        if kind is dict:
            if not all(type(key) is str for key in value):
                raise ValueError("prepared payload dicts need string keys")
            return {key: self.value(item) for key, item in value.items()}
        name = kind.__name__
        if kind in (list, tuple):
            return [name, *map(self.value, value)]
        if kind in (set, frozenset):
            try:
                return [name, *sorted(map(self.value, value))]
            except TypeError as exc:
                raise ValueError(f"unsortable set in a prepared payload: {exc}") from exc
        if kind is np.ndarray:
            dtype = value.dtype.newbyteorder("<")
            if dtype.str not in _DTYPES:
                raise ValueError(f"no section dtype for {value.dtype}")
            self.sections.append(np.ascontiguousarray(value, dtype=dtype).tobytes())
            return ["ndarray", dtype.str, list(value.shape), len(self.sections) - 1]
        if kind is DataType:
            return [name, value.value]
        if _RECORDS.get(name) is kind:
            fields = dataclasses.fields(value)
            return [name, *(self.value(getattr(value, field.name)) for field in fields)]
        if kind is PreparedTable:
            if value.header != self.header:
                raise ValueError("a nested prepared table must share the row's header")
            return ["PreparedTable", value.fingerprint, self.value(dict(value.payload))]
        raise ValueError(f"{kind.__qualname__} cannot be stored in a prepared row")


class _Reader:
    """Builds payload values back from skeleton nodes (the inverse of _Writer)."""

    def __init__(self, header: TableHeader, sections: list) -> None:
        self.header = header
        self.sections = sections
        self.used: set[int] = set()

    def value(self, node: object) -> object:
        kind = type(node)
        if kind is dict:
            return {key: self.value(item) for key, item in node.items()}
        if kind is not list:
            return node
        if not node or type(node[0]) is not str:
            raise ValueError("untagged array")
        tag, fields = node[0], node[1:]
        container = _CONTAINERS.get(tag)
        if container is not None:
            return container(map(self.value, fields))
        if tag in _RECORDS:
            return _RECORDS[tag](*map(self.value, fields))
        if tag == "DataType":
            (value,) = fields
            return DataType(value)
        if tag == "ndarray":
            return self._array(*fields)
        if tag == "PreparedTable":
            fingerprint, payload = map(self.value, fields)
            return PreparedTable(fingerprint=fingerprint, payload=payload, header=self.header)
        raise ValueError(f"unknown tag {tag!r}")

    def _array(self, dtype: str, shape: list, index: int) -> np.ndarray:
        if (
            dtype not in _DTYPES
            or type(shape) is not list
            or type(index) is not int
            or not 0 <= index < len(self.sections)
            or index in self.used
        ):
            raise ValueError("malformed array")
        if not all(type(size) is int and size >= 0 for size in shape):
            raise ValueError("malformed array shape")
        self.used.add(index)
        return framing.section_array(self.sections[index], dtype, tuple(shape))
